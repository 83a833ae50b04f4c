//! Seeded input generation. The seed reaches only this module: the
//! program under test is handed the arrays and schedules made here,
//! never the seed itself.

use ncl::core::apps::KvsOp;
use rand::prelude::*;

/// Input arrays for one allreduce job plus the answer the benchmark
/// computes for itself.
pub struct ArInput {
    /// One array per worker.
    pub data: Vec<Vec<i32>>,
    /// Element-wise wrapping sum over the workers.
    pub expected: Vec<i32>,
}

/// `workers` arrays of `elements` full-range `i32`s (so the wrapping
/// behaviour of the sum is exercised, not avoided).
pub fn allreduce_input(rng: &mut StdRng, workers: usize, elements: usize) -> ArInput {
    let data: Vec<Vec<i32>> = (0..workers)
        .map(|_| (0..elements).map(|_| rng.gen::<i32>()).collect())
        .collect();
    let expected = (0..elements)
        .map(|i| data.iter().fold(0i32, |acc, d| acc.wrapping_add(d[i])))
        .collect();
    ArInput { data, expected }
}

/// A Zipf(s) sampler over `1..=n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the CDF.
    pub fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        (self.cdf.partition_point(|&c| c < u) + 1) as u64
    }
}

/// Operation schedules for `clients` KVS clients, `ops` each: client
/// `c` issues operation `i` at `i × 150 µs + c × 900 ns` of simulated
/// time (the E2 pacing), so operation `i` of all clients forms one
/// *batch* reaching the switch within a few microseconds.
///
/// A batch in which a PUT's key is also touched by another client is
/// redrawn. Within one control-plane round trip (50 µs) of a cache fill
/// the server's write-through of a PUT overtakes the `Idx` insert, the
/// switch kernel then dereferences a missed lookup and overwrites cache
/// slot 0 — a KVS race this benchmark found and must not trip over,
/// because its workloads are chosen so that no operation fails.
pub fn kvs_schedules(
    rng: &mut StdRng,
    zipf: &Zipf,
    clients: usize,
    ops: usize,
    put_share: f64,
) -> Vec<Vec<KvsOp>> {
    let mut schedules = vec![Vec::with_capacity(ops); clients];
    for i in 0..ops {
        let batch = loop {
            let batch: Vec<(u64, bool)> = (0..clients)
                .map(|_| (zipf.sample(rng), rng.gen::<f64>() < put_share))
                .collect();
            let put_collides = batch.iter().enumerate().any(|(a, &(key, put))| {
                put && batch
                    .iter()
                    .enumerate()
                    .any(|(b, &(other, _))| a != b && other == key)
            });
            if !put_collides {
                break batch;
            }
        };
        for (c, (key, put)) in batch.into_iter().enumerate() {
            schedules[c].push(KvsOp {
                at: i as u64 * 150_000 + (c as u64 + 1) * 900,
                key,
                put,
            });
        }
    }
    schedules
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = allreduce_input(&mut StdRng::seed_from_u64(7), 4, 64);
        let b = allreduce_input(&mut StdRng::seed_from_u64(7), 4, 64);
        let c = allreduce_input(&mut StdRng::seed_from_u64(8), 4, 64);
        assert_eq!(a.data, b.data);
        assert_ne!(a.data, c.data);
        assert_eq!(
            a.expected[3],
            a.data.iter().fold(0i32, |s, d| s.wrapping_add(d[3]))
        );
    }

    #[test]
    fn no_put_shares_its_key_within_a_batch() {
        let z = Zipf::new(50, 1.1);
        let s = kvs_schedules(&mut StdRng::seed_from_u64(3), &z, 4, 2_000, 0.2);
        let mut puts = 0;
        for i in 0..2_000 {
            let batch: Vec<_> = s.iter().map(|client| client[i]).collect();
            for (a, op) in batch.iter().enumerate().filter(|(_, op)| op.put) {
                puts += 1;
                let shared = batch
                    .iter()
                    .enumerate()
                    .any(|(b, o)| a != b && o.key == op.key);
                assert!(!shared, "batch {i}: PUT of key {} collides", op.key);
            }
        }
        assert!(puts > 1_000, "the rule thins PUTs, it does not remove them");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = StdRng::seed_from_u64(1);
        let draws: Vec<u64> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&k| (1..=1000).contains(&k)));
        let hot = draws.iter().filter(|&&k| k <= 10).count();
        assert!(hot > 3_000, "top-10 keys draw {hot} of 10000");
    }
}
