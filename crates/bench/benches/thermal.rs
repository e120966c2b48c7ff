//! Thermal-model micro-benchmarks: block-level steady state, grid-refined
//! steady state and the transient solver. These bound the per-decision cost
//! the thermal-aware ASP pays when it queries the model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tats_thermal::{
    Block, Floorplan, GridModel, PowerPhase, Rect, Temperatures, ThermalConfig, ThermalModel,
    ThermalSession, TransientSolver,
};

fn floorplan(blocks: usize) -> Floorplan {
    let columns = (blocks as f64).sqrt().ceil() as usize;
    let plan: Vec<Block> = (0..blocks)
        .map(|i| {
            let col = (i % columns) as f64;
            let row = (i / columns) as f64;
            Block::from_mm(format!("b{i}"), col * 7.0, row * 7.0, 7.0, 7.0)
        })
        .collect();
    Floorplan::new(plan).expect("valid synthetic floorplan")
}

fn power(blocks: usize) -> Vec<f64> {
    (0..blocks).map(|i| 2.0 + (i % 5) as f64).collect()
}

fn bench_block_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_block_steady_state");
    for blocks in [4usize, 9, 16, 36] {
        let plan = floorplan(blocks);
        let model = ThermalModel::new(&plan, ThermalConfig::default()).unwrap();
        let p = power(blocks);
        group.bench_function(BenchmarkId::from_parameter(blocks), |b| {
            b.iter(|| model.steady_state(&p).unwrap())
        });
    }
    group.finish();
}

fn bench_model_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_model_construction");
    for blocks in [4usize, 16, 36] {
        let plan = floorplan(blocks);
        group.bench_function(BenchmarkId::from_parameter(blocks), |b| {
            b.iter(|| ThermalModel::new(&plan, ThermalConfig::default()).unwrap())
        });
    }
    group.finish();
}

/// Per-candidate evaluation as the floorplanner issues it: the geometry
/// changes every call. Compares rebuilding the whole model against the
/// cached session kernel reusing matrix/LU/solution storage.
fn bench_per_candidate_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_per_candidate_evaluation");
    group.sample_size(20);
    for blocks in [4usize, 16, 36] {
        let p = power(blocks);
        let columns = (blocks as f64).sqrt().ceil() as usize;
        let rects: Vec<Rect> = (0..blocks)
            .map(|i| {
                let col = (i % columns) as f64;
                let row = (i / columns) as f64;
                Rect::new(col * 7e-3, row * 7e-3, 7e-3, 7e-3)
            })
            .collect();
        let mut shifted = rects.clone();
        let mut flip = false;

        group.bench_function(BenchmarkId::new("rebuild_model", blocks), |b| {
            b.iter(|| {
                // Move the layout so no construction work can be skipped.
                flip = !flip;
                let delta = if flip { 0.5e-3 } else { -0.5e-3 };
                for r in &mut shifted {
                    r.x += delta;
                }
                let plan = Floorplan::new(
                    shifted
                        .iter()
                        .enumerate()
                        .map(|(i, r)| Block::new(format!("b{i}"), r.x, r.y, r.width, r.height))
                        .collect(),
                )
                .unwrap();
                let model = ThermalModel::new(&plan, ThermalConfig::default()).unwrap();
                model.steady_state(&p).unwrap().max_c()
            })
        });

        let mut session = ThermalSession::new(blocks, ThermalConfig::default()).unwrap();
        group.bench_function(BenchmarkId::new("cached_session", blocks), |b| {
            b.iter(|| {
                flip = !flip;
                let delta = if flip { 0.5e-3 } else { -0.5e-3 };
                for r in &mut shifted {
                    r.x += delta;
                }
                session.peak_temperature(&shifted, &p).unwrap()
            })
        });
    }
    group.finish();
}

/// One steady-state solve on the cached banded Cholesky factor per
/// iteration; `GridModel::new` factorises outside the timed loop. Results
/// recorded before the factor became the only grid solver timed the
/// Gauss–Seidel sweep `GridModel::new` used to default to, so they are
/// not comparable with these.
fn bench_grid_steady_state(c: &mut Criterion) {
    let plan = floorplan(4);
    let p = power(4);
    let mut group = c.benchmark_group("thermal_grid_steady_state");
    group.sample_size(20);
    for resolution in [8usize, 16, 32] {
        let grid = GridModel::new(&plan, ThermalConfig::default(), resolution, resolution).unwrap();
        group.bench_function(BenchmarkId::from_parameter(resolution), |b| {
            b.iter(|| grid.steady_state(&p).unwrap())
        });
    }
    group.finish();
}

fn bench_transient(c: &mut Criterion) {
    let plan = floorplan(4);
    let model = ThermalModel::new(&plan, ThermalConfig::default()).unwrap();
    let p = power(4);
    let start = Temperatures::uniform(4, 45.0);
    let trace = vec![PowerPhase::new(500.0, p)];
    let mut group = c.benchmark_group("thermal_transient_500_units");
    group.sample_size(20);
    group.bench_function("backward_euler_dt50ms", |b| {
        let solver = TransientSolver::new(&model).with_step(0.05);
        b.iter(|| solver.run(&start, &trace).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_block_steady_state,
    bench_model_construction,
    bench_per_candidate_evaluation,
    bench_grid_steady_state,
    bench_transient
);
criterion_main!(benches);
