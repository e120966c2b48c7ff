//! Cost of the power/reliability extensions on top of the paper's scheduler.
//!
//! Two pipelines are measured per benchmark:
//!
//! * `profile+transient` — building the per-PE power profile of a finished
//!   schedule and replaying it through the transient thermal solver;
//! * `reliability` — transient replay followed by the full MTTF analysis
//!   (Arrhenius mechanisms plus thermal-cycling rainflow).
//!
//! These are the analyses a designer runs once per candidate mapping, so
//! their cost must stay far below the scheduler's own cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tats_bench::Fixture;
use tats_core::Policy;
use tats_power::{PowerProfile, ScheduleSimulator};
use tats_reliability::ReliabilityAnalyzer;
use tats_taskgraph::Benchmark;
use tats_techlib::profiles;
use tats_thermal::{ThermalConfig, ThermalModel};

fn bench_extensions(c: &mut Criterion) {
    let fixture = Fixture::new().expect("fixture");
    let flow = fixture.platform_flow().expect("platform flow");
    let library = profiles::standard_library(12).expect("library");

    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);

    for (index, bm) in Benchmark::ALL.iter().enumerate() {
        let graph = fixture.benchmark(index).clone();
        let result = flow.run(&graph, Policy::ThermalAware).expect("schedule");
        let model = ThermalModel::new(&result.floorplan, ThermalConfig::default()).expect("model");
        let profile = PowerProfile::from_schedule(&result.schedule, &result.architecture, &library)
            .expect("profile");

        group.bench_function(BenchmarkId::new("profile+transient", bm.name()), |b| {
            b.iter(|| {
                let profile =
                    PowerProfile::from_schedule(&result.schedule, &result.architecture, &library)
                        .expect("profile");
                ScheduleSimulator::new(&model)
                    .simulate(&profile)
                    .expect("trace")
                    .peak_c()
            })
        });

        group.bench_function(BenchmarkId::new("reliability", bm.name()), |b| {
            let analyzer = ReliabilityAnalyzer::new();
            b.iter(|| {
                let trace = ScheduleSimulator::new(&model)
                    .simulate(&profile)
                    .expect("trace");
                analyzer
                    .from_trace(&trace)
                    .expect("reliability")
                    .system_mttf_hours()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_extensions);
criterion_main!(benches);
