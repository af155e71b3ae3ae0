//! Codec microbenchmarks (E5): encoder construction, per-symbol repair
//! cost (O(1) in K — the property that makes rateless sending cheap),
//! full decode at realistic loss, and the GF(256) slice kernels
//! everything above sits on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rq::hdpc::HdpcFold;
use rq::{gf256, Decoder, Encoder};

fn data(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 131 + 17) as u8).collect()
}

fn encoder_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("rq/encoder_construction");
    g.sample_size(10);
    for k in [64usize, 256, 1024] {
        let d = data(k * 256);
        g.throughput(Throughput::Bytes(d.len() as u64));
        g.bench_function(format!("k={k}"), |b| {
            b.iter(|| Encoder::new(std::hint::black_box(&d), 256).unwrap())
        });
    }
    g.finish();
}

fn encode_at_object_scale(c: &mut Criterion) {
    // What a real-oracle session pays once per object: the 512 KiB
    // `bench_e2e` read object and the paper's 4 MB block.
    let mut g = c.benchmark_group("rq/encode");
    g.sample_size(10);
    for (label, bytes) in [("encode_512k", 512usize << 10), ("encode_4m", 4 << 20)] {
        let d = data(bytes);
        g.throughput(Throughput::Bytes(bytes as u64));
        g.bench_function(label, |b| {
            b.iter(|| Encoder::new(std::hint::black_box(&d), 1440).unwrap())
        });
    }
    g.finish();
}

fn repair_symbol_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("rq/repair_symbol");
    g.sample_size(20);
    // Constant mean degree ⇒ repair cost independent of K.
    for k in [64usize, 1024] {
        let d = data(k * 1440);
        let enc = Encoder::new(&d, 1440).unwrap();
        g.throughput(Throughput::Bytes(1440));
        g.bench_function(format!("k={k}"), |b| {
            let mut esi = k as u32;
            b.iter(|| {
                esi += 1;
                enc.symbol(std::hint::black_box(esi))
            })
        });
    }
    g.finish();
}

fn decode_with_loss(c: &mut Criterion) {
    let mut g = c.benchmark_group("rq/decode_20pct_loss");
    g.sample_size(10);
    for k in [64usize, 256] {
        let d = data(k * 256);
        let enc = Encoder::new(&d, 256).unwrap();
        // 20% of source symbols lost, replaced by repairs (+2 overhead).
        let mut symbols: Vec<(u32, Vec<u8>)> = Vec::new();
        for esi in 0..k as u32 {
            if esi % 5 != 0 {
                symbols.push((esi, enc.symbol(esi)));
            }
        }
        let mut esi = k as u32;
        while symbols.len() < k + 2 {
            symbols.push((esi, enc.symbol(esi)));
            esi += 1;
        }
        g.throughput(Throughput::Bytes(d.len() as u64));
        g.bench_function(format!("k={k}"), |b| {
            b.iter_batched(
                || symbols.clone(),
                |syms| {
                    let mut dec = Decoder::new(enc.params());
                    for (esi, s) in syms {
                        dec.push(esi, s);
                    }
                    dec.try_decode().unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn systematic_fast_path(c: &mut Criterion) {
    // The zero-loss case must not pay any linear algebra (paper §2:
    // source symbols go straight to the application).
    let mut g = c.benchmark_group("rq/systematic_fast_path");
    g.sample_size(20);
    let k = 256usize;
    let d = data(k * 256);
    let enc = Encoder::new(&d, 256).unwrap();
    let symbols: Vec<(u32, Vec<u8>)> = (0..k as u32).map(|e| (e, enc.symbol(e))).collect();
    g.throughput(Throughput::Bytes(d.len() as u64));
    g.bench_function("k=256_lossless", |b| {
        b.iter_batched(
            || symbols.clone(),
            |syms| {
                let mut dec = Decoder::new(enc.params());
                for (esi, s) in syms {
                    dec.push(esi, s);
                }
                dec.try_decode().unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn gf256_kernels(c: &mut Criterion) {
    // The solver and the HDPC construction are made of these two slice
    // ops; symbol-size slices are the real working set.
    let n = 1440usize;
    let src = data(n);
    let mut g = c.benchmark_group("rq/gf256");
    g.throughput(Throughput::Bytes(n as u64));
    g.bench_function("addmul_1440", |b| {
        let mut dst = data(n);
        let mut coef = 1u8;
        b.iter(|| {
            coef = coef.wrapping_mul(3).max(2);
            gf256::addmul(std::hint::black_box(&mut dst), &src, coef);
        })
    });
    // All twelve HDPC rows in one pass: compare with 12 × addmul_1440.
    g.bench_function("hdpc_fold", |b| {
        let mut fold = HdpcFold::new(n);
        let mut coefs = [1u8; rq::params::H_HDPC];
        b.iter(|| {
            coefs[0] = coefs[0].wrapping_mul(3).max(2);
            fold.fold(std::hint::black_box(&coefs), &src);
        })
    });
    g.bench_function("xor_assign_1440", |b| {
        let mut dst = data(n);
        b.iter(|| gf256::xor_assign(std::hint::black_box(&mut dst), &src))
    });
    g.bench_function("mul_slice_1440", |b| {
        let mut dst = data(n);
        let mut coef = 1u8;
        b.iter(|| {
            coef = coef.wrapping_mul(3).max(2);
            gf256::mul_slice(std::hint::black_box(&mut dst), coef);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    encoder_construction,
    encode_at_object_scale,
    repair_symbol_cost,
    decode_with_loss,
    systematic_fast_path,
    gf256_kernels
);
criterion_main!(benches);
