//! Floorplanner benches: the cost-evaluation hot path (naive per-candidate
//! thermal-model rebuild vs the cached `ThermalSession` kernel vs the
//! memoised kernel), the placement evaluation both engines run per
//! candidate (`PolishExpression::evaluate`) at growing module counts, and
//! the engine ablation (GA vs SA vs the unoptimised initial layout) with
//! thermal-aware and area-only objectives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tats_floorplan::{
    testutil, CostEvaluator, CostWeights, Engine, Floorplanner, GaConfig, Module, Net, Placement,
    PolishExpression, SaConfig,
};
use tats_thermal::ThermalConfig;

fn modules() -> Vec<Module> {
    vec![
        Module::from_mm("cpu0", 7.0, 7.0, 6.5),
        Module::from_mm("cpu1", 7.0, 7.0, 5.5),
        Module::from_mm("dsp", 5.0, 6.0, 2.5),
        Module::from_mm("accel", 4.0, 4.0, 1.2),
        Module::from_mm("mem", 6.0, 4.0, 0.8),
        Module::from_mm("io", 3.0, 3.0, 0.4),
    ]
}

/// A deterministic set of distinct candidate placements, as the SA/GA inner
/// loops would visit them.
fn candidate_placements(modules: &[Module], count: usize) -> Vec<Placement> {
    let mut rng = StdRng::seed_from_u64(0xF1004);
    let mut expr = PolishExpression::initial(modules.len()).expect("modules");
    let mut placements = Vec::with_capacity(count);
    for _ in 0..count {
        expr = expr.perturb(&mut rng);
        placements.push(expr.evaluate(modules).expect("valid expression"));
    }
    placements
}

fn bench_cost_evaluation(c: &mut Criterion) {
    let modules = modules();
    let reference = PolishExpression::initial(modules.len())
        .unwrap()
        .evaluate(&modules)
        .unwrap();
    let evaluator = CostEvaluator::new(
        modules.clone(),
        vec![Net::new(vec![0, 1, 4]), Net::new(vec![2, 3, 5])],
        CostWeights::thermal_aware(),
        ThermalConfig::default(),
        &reference,
    )
    .unwrap();
    let placements = candidate_placements(&modules, 64);

    let mut group = c.benchmark_group("floorplanner_cost_evaluation");
    group.sample_size(20);
    let mut index = 0usize;
    group.bench_function("naive_rebuild", |b| {
        b.iter(|| {
            index = (index + 1) % placements.len();
            evaluator.cost(&placements[index]).unwrap()
        })
    });
    let mut scratch = evaluator.scratch().unwrap();
    group.bench_function("cached_kernel", |b| {
        b.iter(|| {
            index = (index + 1) % placements.len();
            // Fresh geometry every call (the memo is defeated by clearing),
            // so this measures assemble + refactor + solve through the
            // session's reused storage.
            scratch.clear_memo();
            evaluator
                .cost_with(&placements[index], &mut scratch)
                .unwrap()
        })
    });
    let mut scratch = evaluator.scratch().unwrap();
    group.bench_function("cached_kernel_memoised", |b| {
        b.iter(|| {
            index = (index + 1) % placements.len();
            evaluator
                .cost_with(&placements[index], &mut scratch)
                .unwrap()
        })
    });
    group.finish();
}

/// The SA inner loop's placement step at growing module counts: one move,
/// one `O(n)` evaluation, accept half the time.
fn bench_placement_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("floorplanner_placement_evaluation");
    group.sample_size(20);
    for count in [8usize, 32, 64] {
        let modules = testutil::module_set(count, 0xBE7C);
        group.bench_function(BenchmarkId::from_parameter(count), |b| {
            let mut expr = PolishExpression::initial(count).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                let candidate = expr.perturb(&mut rng);
                let placement = candidate.evaluate(&modules).unwrap();
                if rng.gen_bool(0.5) {
                    expr = candidate;
                }
                placement.area()
            })
        });
    }
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let engines: Vec<(&str, Engine)> = vec![
        ("initial_only", Engine::InitialOnly),
        (
            "annealing",
            Engine::Annealing(SaConfig {
                moves_per_temperature: 30,
                ..SaConfig::default()
            }),
        ),
        (
            "genetic",
            Engine::Genetic(GaConfig {
                population: 16,
                generations: 20,
                ..GaConfig::default()
            }),
        ),
    ];
    let mut group = c.benchmark_group("floorplanner_engine_thermal_aware");
    group.sample_size(10);
    for (name, engine) in &engines {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                Floorplanner::new(modules())
                    .with_weights(CostWeights::thermal_aware())
                    .with_engine(*engine)
                    .run()
                    .unwrap()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("floorplanner_engine_area_only");
    group.sample_size(10);
    for (name, engine) in &engines {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                Floorplanner::new(modules())
                    .with_weights(CostWeights::area_only())
                    .with_engine(*engine)
                    .run()
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cost_evaluation,
    bench_placement_evaluation,
    bench_engines
);
criterion_main!(benches);
