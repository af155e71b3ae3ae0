//! E4 — the reception-overhead / decode-failure contract.
//!
//! The paper leans on RFC 6330's property that "decoding fails only 1 in
//! 1,000,000 when the receiver collects n + 2 encoding symbols". This
//! bench measures the failure rate of *our* code empirically at +0/+1/+2
//! overhead (validating DESIGN.md substitution S1) and times decode at
//! each overhead level.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rq::{rand::Xorshift64, Decoder, Encoder};

fn measure_failure_rates() {
    let k = 64usize;
    let d: Vec<u8> = (0..k * 64).map(|i| (i * 7) as u8).collect();
    let enc = Encoder::new(&d, 64).unwrap();
    println!("# measured decode-failure rates (K = {k}, repair-only worst case)");
    for overhead in 0..=2usize {
        let trials = match overhead {
            0 => 3000,
            1 => 2000,
            _ => 1000,
        };
        let mut failures = 0;
        let mut rng = Xorshift64::new(42 + overhead as u64);
        for _ in 0..trials {
            let mut dec = Decoder::new(enc.params());
            let mut added = 0;
            // Random distinct repair symbols from a wide ESI range:
            // the hardest case (no systematic fast path).
            while added < k + overhead {
                let esi = k as u32 + rng.next_below(100 * k as u64) as u32;
                if dec.push(esi, enc.symbol(esi)) {
                    added += 1;
                }
            }
            if dec.try_decode().is_err() {
                failures += 1;
            }
        }
        println!(
            "#   +{overhead}: {failures}/{trials} = {:.4}% (RFC 6330 class: {}%)",
            100.0 * failures as f64 / trials as f64,
            100.0 * 10f64.powi(-(2 * (overhead as i32 + 1)))
        );
    }
}

fn decode_at_overhead(c: &mut Criterion) {
    measure_failure_rates();
    let mut g = c.benchmark_group("rq/decode_at_overhead");
    g.sample_size(10);
    let k = 256usize;
    let d: Vec<u8> = (0..k * 256).map(|i| (i * 13) as u8).collect();
    let enc = Encoder::new(&d, 256).unwrap();
    for overhead in [0usize, 2] {
        // Repair-only reception (worst case for the solver).
        let symbols: Vec<(u32, Vec<u8>)> = (0..(k + overhead) as u32)
            .map(|i| {
                let esi = k as u32 + 7 * i + 1;
                (esi, enc.symbol(esi))
            })
            .collect();
        g.bench_function(format!("repair_only_k256_plus{overhead}"), |b| {
            b.iter_batched(
                || symbols.clone(),
                |syms| {
                    let mut dec = Decoder::new(enc.params());
                    for (esi, s) in syms {
                        dec.push(esi, s);
                    }
                    // +0 may (rarely) be rank-deficient; that is part of
                    // the contract being measured, not a bench failure.
                    let _ = dec.try_decode();
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, decode_at_overhead);
criterion_main!(benches);
