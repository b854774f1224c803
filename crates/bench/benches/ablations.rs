//! Design-choice ablations: each bench times one choice of the paper or
//! of this implementation against its alternatives.
//!
//! * `ablation_fastpaa` — prefix-sum FastPAA (Algorithm 2) vs naive
//!   per-window z-normalize + PAA.
//! * `ablation_multires` — merged-breakpoint multi-resolution SAX vs one
//!   breakpoint table per alphabet size (Section 6.2).
//! * `ablation_matrix_profile` — the STOMP kernel vs brute force.
//! * `ablation_numerosity` — Sequitur on numerosity-reduced vs raw token
//!   streams (Section 4.2's scalability claim).
//! * `ablation_combiner` — median vs mean vs min ensemble combination.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use egi_bench::fixture_ecg;
use egi_core::{Combiner, EnsembleConfig, EnsembleDetector};
use egi_sax::{
    discretize_series, discretize_series_naive, numerosity_reduce, BreakpointTable, FastSax,
    MultiResBreakpoints, SaxConfig,
};
use egi_sequitur::Sequitur;

fn bench_fastpaa(c: &mut Criterion) {
    let series = fixture_ecg(20_000, 4);
    let n = 256;
    let cfg = SaxConfig::new(8, 6);
    let mut group = c.benchmark_group("ablation_fastpaa");
    group.sample_size(10);
    group.bench_function("fast_prefix_sum", |b| {
        let multi = MultiResBreakpoints::new(10);
        b.iter(|| {
            let fast = FastSax::new(black_box(&series));
            discretize_series(&fast, n, cfg, &multi)
        })
    });
    group.bench_function("naive_per_window", |b| {
        b.iter(|| discretize_series_naive(black_box(&series), n, cfg))
    });
    group.finish();
}

fn bench_multires(c: &mut Criterion) {
    let series = fixture_ecg(10_000, 4);
    let n = 128;
    let w = 6;
    let alphabets: Vec<usize> = (2..=10).collect();
    let mut group = c.benchmark_group("ablation_multires");
    group.sample_size(10);

    // The ensemble's access pattern: for one window, symbols under *all*
    // alphabet sizes. Merged table: one PAA pass + one binary search per
    // coefficient, whose cell yields every resolution at once.
    group.bench_function("merged_table", |b| {
        let fast = FastSax::new(&series);
        let multi = MultiResBreakpoints::new(10);
        let lookups: Vec<&[u8]> = alphabets.iter().map(|&a| multi.lookup(a)).collect();
        let mut coeffs = vec![0.0; w];
        b.iter(|| {
            let mut total = 0usize;
            for start in 0..series.len() - n {
                fast.paa_znorm_into(start, n, &mut coeffs);
                for &cst in &coeffs {
                    let cell = usize::from(multi.cell(cst));
                    for lookup in &lookups {
                        total += lookup[cell] as usize;
                    }
                }
            }
            total
        })
    });
    // Per-resolution: same PAA pass, but one breakpoint search per
    // alphabet size per coefficient.
    group.bench_function("per_resolution_tables", |b| {
        let fast = FastSax::new(&series);
        let tables: Vec<BreakpointTable> =
            alphabets.iter().map(|&a| BreakpointTable::new(a)).collect();
        let mut coeffs = vec![0.0; w];
        b.iter(|| {
            let mut total = 0usize;
            for start in 0..series.len() - n {
                fast.paa_znorm_into(start, n, &mut coeffs);
                for &cst in &coeffs {
                    for t in &tables {
                        total += t.symbol(cst) as usize;
                    }
                }
            }
            total
        })
    });
    group.finish();
}

fn bench_matrix_profile(c: &mut Criterion) {
    let series = fixture_ecg(3_000, 4);
    let m = 100;
    let mut group = c.benchmark_group("ablation_matrix_profile");
    group.sample_size(10);
    group.bench_function("stomp", |b| {
        b.iter(|| egi_discord::stomp(black_box(&series), m))
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| egi_discord::brute::brute_force(black_box(&series), m, m / 2))
    });
    group.finish();
}

fn bench_numerosity(c: &mut Criterion) {
    let series = fixture_ecg(20_000, 4);
    let n = 256;
    let cfg = SaxConfig::new(6, 5);
    let fast = FastSax::new(&series);
    let multi = MultiResBreakpoints::new(10);

    // Raw word stream (no numerosity reduction) vs the reduced stream.
    let mut scratch = Vec::new();
    let raw_words: Vec<egi_sax::SaxWord> = (0..series.len() - n + 1)
        .map(|s| fast.word_multires(s, n, cfg, &multi, &mut scratch))
        .collect();
    let reduced = numerosity_reduce(raw_words.clone(), n);
    eprintln!(
        "numerosity reduction: {} raw tokens → {} reduced",
        raw_words.len(),
        reduced.len()
    );

    let intern = |words: &[egi_sax::SaxWord]| -> Vec<u32> {
        let mut table = std::collections::HashMap::new();
        words
            .iter()
            .map(|w| {
                let next = table.len() as u32;
                *table.entry(*w).or_insert(next)
            })
            .collect()
    };
    let raw_tokens = intern(&raw_words);
    let reduced_tokens: Vec<u32> =
        intern(&reduced.tokens.iter().map(|t| t.word).collect::<Vec<_>>());

    let mut group = c.benchmark_group("ablation_numerosity");
    group.sample_size(10);
    group.bench_function("sequitur_with_reduction", |b| {
        b.iter(|| {
            let mut s = Sequitur::new();
            for &t in black_box(&reduced_tokens) {
                s.push(t);
            }
            s.into_grammar().rule_count()
        })
    });
    group.bench_function("sequitur_without_reduction", |b| {
        b.iter(|| {
            let mut s = Sequitur::new();
            for &t in black_box(&raw_tokens) {
                s.push(t);
            }
            s.into_grammar().rule_count()
        })
    });
    group.finish();
}

fn bench_combiner(c: &mut Criterion) {
    let series = fixture_ecg(8_000, 4);
    let mut group = c.benchmark_group("ablation_combiner");
    group.sample_size(10);
    for (name, combiner) in [
        ("median", Combiner::Median),
        ("mean", Combiner::Mean),
        ("min", Combiner::Min),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &combiner, |b, &comb| {
            let det = EnsembleDetector::new(EnsembleConfig {
                window: 256,
                ensemble_size: 20,
                combiner: comb,
                ..EnsembleConfig::default()
            });
            b.iter(|| det.detect(black_box(&series), 3, 1))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fastpaa,
    bench_multires,
    bench_matrix_profile,
    bench_numerosity,
    bench_combiner
);
criterion_main!(benches);
