//! Criterion benches for the cryptographic substrate: hashing, signatures
//! and Merkle trees. These set the cost floor for every other number in
//! the harness (an entry costs one signature + its share of a Merkle root).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use seldel_crypto::{sha256, sha512, MerkleTree, Signature, SigningKey, VerifyingKey};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            b.iter(|| sha256(black_box(&data)))
        });
    }
    group.finish();
}

fn bench_sha512(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha512");
    let data = vec![0xcdu8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("1024", |b| b.iter(|| sha512(black_box(&data))));
    group.finish();
}

fn bench_ed25519(c: &mut Criterion) {
    let key = SigningKey::from_seed([7u8; 32]);
    let message = b"block 3 entry 1 deletion request";
    let signature = key.sign(message);
    let verifying = key.verifying_key();

    c.bench_function("ed25519/sign", |b| b.iter(|| key.sign(black_box(message))));
    c.bench_function("ed25519/verify", |b| {
        b.iter(|| verifying.verify(black_box(message), black_box(&signature)))
    });
    c.bench_function("ed25519/keygen", |b| {
        b.iter(|| SigningKey::from_seed(black_box([9u8; 32])))
    });
    // `from_bytes` memoises each valid key per thread (at most 1 024 keys,
    // cleared when full), so a repeated key would time a table hit. Rotating
    // over twice that many distinct keys makes every parse a first sight:
    // the decompression plus building and inserting the key's table.
    let encoded: Vec<[u8; 32]> = (0..2048u16)
        .map(|i| {
            let mut seed = [0u8; 32];
            seed[..2].copy_from_slice(&i.to_le_bytes());
            SigningKey::from_seed(seed).verifying_key().to_bytes()
        })
        .collect();
    let mut next = 0;
    c.bench_function("ed25519/decompress", |b| {
        b.iter(|| {
            let bytes = &encoded[next % encoded.len()];
            next += 1;
            VerifyingKey::from_bytes(black_box(bytes))
        })
    });

    // Round-robin over 64 authors, like the benchmark's tenants: consecutive
    // verifies never repeat a key or signature. The base-point table and
    // all 64 keys' memoised tables stay warm, so each verify decompresses
    // only `R`.
    let signed: Vec<(VerifyingKey, Signature)> = (0..64u8)
        .map(|i| {
            let key = SigningKey::from_seed([i; 32]);
            (key.verifying_key(), key.sign(message))
        })
        .collect();
    let mut next = 0;
    c.bench_function("ed25519/verify_64_keys", |b| {
        b.iter(|| {
            let (key, signature) = &signed[next % signed.len()];
            next += 1;
            key.verify(black_box(message), black_box(signature))
        })
    });
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle");
    for leaves in [16usize, 256, 2048] {
        let data: Vec<Vec<u8>> = (0..leaves)
            .map(|i| format!("leaf-{i}").into_bytes())
            .collect();
        group.throughput(Throughput::Elements(leaves as u64));
        group.bench_function(BenchmarkId::new("build", leaves), |b| {
            b.iter(|| MerkleTree::from_leaves(black_box(&data)))
        });
    }
    let data: Vec<Vec<u8>> = (0..256).map(|i| format!("leaf-{i}").into_bytes()).collect();
    let tree = MerkleTree::from_leaves(&data);
    let proof = tree.prove(137).expect("in range");
    let root = tree.root();
    group.bench_function("verify_proof/256", |b| {
        b.iter(|| proof.verify(black_box(&data[137]), black_box(&root)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20);
    targets = bench_sha256, bench_sha512, bench_ed25519, bench_merkle
}
criterion_main!(benches);
