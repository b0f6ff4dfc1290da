//! Throughput of the one-pass streaming engine: CLF source, TTL
//! sessionizer, and the fully wired analyzer, against the batch
//! equivalents benchmarked in `sessionize.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use webpuzzle_stream::{
    ClfSource, Source, StreamAnalyzer, StreamConfig, StreamSessionizer, WindowConfig,
};
use webpuzzle_weblog::clf::format_line;
use webpuzzle_weblog::LogRecord;
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

const BASE_EPOCH: i64 = 1_073_865_600;

fn records(scale: f64) -> Vec<LogRecord> {
    WorkloadGenerator::new(ServerProfile::clarknet().with_scale(scale))
        .seed(1)
        .generate()
        .expect("profile generates")
}

fn small_windows() -> StreamConfig {
    StreamConfig {
        request_window: WindowConfig {
            fine_bin_width: None,
            ..WindowConfig::default()
        },
        ..StreamConfig::default()
    }
}

fn bench_clf_source(c: &mut Criterion) {
    let recs = records(0.02);
    let text: String = recs
        .iter()
        .map(|r| format_line(r, BASE_EPOCH) + "\n")
        .collect();
    c.bench_function(format!("stream/clf_source/{}", recs.len()), |b| {
        b.iter(|| {
            let mut src = ClfSource::new(black_box(text.as_bytes()), BASE_EPOCH);
            let mut n = 0u64;
            while let Some(item) = src.next_item() {
                item.expect("well-formed");
                n += 1;
            }
            n
        })
    });
}

fn bench_sessionizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream/sessionize");
    group.sample_size(20);
    for &scale in &[0.01f64, 0.05] {
        let recs = records(scale);
        group.bench_with_input(BenchmarkId::new("ttl_map", recs.len()), &recs, |b, r| {
            b.iter(|| {
                let mut s = StreamSessionizer::new(1800.0).expect("valid threshold");
                let mut out = Vec::new();
                for rec in black_box(r) {
                    s.push(rec, &mut out).expect("sorted input");
                }
                s.finish(&mut out);
                out.len()
            })
        });
    }
    group.finish();
}

/// `full` keeps the 10-ms reading off so its history stays comparable;
/// `default` is the configuration `stream-analyze` ships with.
fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream/engine");
    group.sample_size(10);
    let recs = records(0.05);
    for (name, cfg) in [
        ("full", small_windows()),
        ("default", StreamConfig::default()),
    ] {
        group.bench_with_input(BenchmarkId::new(name, recs.len()), &recs, |b, r| {
            b.iter(|| {
                let mut engine = StreamAnalyzer::new(cfg.clone()).expect("valid config");
                for rec in black_box(r) {
                    engine.push(rec).expect("sorted input");
                }
                engine.finish().expect("finish").sessions
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_clf_source, bench_sessionizer, bench_engine);
criterion_main!(benches);
