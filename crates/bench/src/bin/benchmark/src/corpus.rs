//! Seeded inputs and their reference behaviour.
//!
//! Every input is a function of the seed alone. The serve corpus mixes
//! sizes as the training suite does, Small:Medium:Large in 2:2:1, and is
//! stratified so that every stretch of it holds the same mix of work: it
//! comes in blocks of [`BLOCK`] modules, one per slot of [`SLOTS`]. Over
//! a round of [`ROUND`] modules every slot meets every archetype once, in
//! a seeded order. Each module is re-drawn until its printed text falls
//! in its class's band of [`text_bytes`], the middle of the class: a
//! response-store hit costs time in proportion to the text, and a rollout
//! grows with it. The `train` workload's programs keep the training
//! suite's mix of sizes too.
//!
//! Correctness is judged against the interpreter run of the unoptimised
//! input, never against the optimizer under test.

use posetrl_ir::interp::{ExecOutcome, InterpConfig, Interpreter, Observation};
use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_ir::verifier::verify_module;
use posetrl_ir::Module;
use posetrl_workloads::{generate, Benchmark, ProgramKind, ProgramSpec, SizeClass};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Size class of each module in a block: 2 Small, 2 Medium, 1 Large.
const SLOTS: [SizeClass; 5] = [
    SizeClass::Small,
    SizeClass::Medium,
    SizeClass::Small,
    SizeClass::Medium,
    SizeClass::Large,
];

/// Modules per block; every block has the same mix of sizes.
pub const BLOCK: usize = SLOTS.len();

/// Modules per round; every round has the same mix of sizes and
/// archetypes.
pub const ROUND: usize = BLOCK * ProgramKind::ALL.len();

/// Printed size of a corpus module of class `size`, bytes: the middle of
/// the class, which every archetype reaches on a fifth or more of its
/// draws.
pub fn text_bytes(size: SizeClass) -> std::ops::Range<usize> {
    match size {
        SizeClass::Small => 11_000..15_000,
        SizeClass::Medium => 41_000..47_000,
        SizeClass::Large => 105_000..125_000,
    }
}

/// Training programs per size class in the `train` draw: the training
/// suite's own 2:2:1 mix of Small, Medium and Large, 24 in all.
const TRAIN_QUOTAS: [(SizeClass, usize); 3] = [
    (SizeClass::Small, 10),
    (SizeClass::Medium, 9),
    (SizeClass::Large, 5),
];

/// The reference interpreter's budget (the evaluator's in `posetrl::eval`).
const REFERENCE: InterpConfig = InterpConfig {
    fuel: 50_000_000,
    max_depth: 512,
};

/// Threads that generate and check inputs: the two cores the benchmark is
/// sized for.
const THREADS: usize = 2;

/// The splitmix64 finalizer.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One corpus module with the observation its reference run makes.
pub struct Entry {
    /// Printed module text, as a client sends it.
    pub text: String,
    /// Interpreter observation of the unoptimised module.
    pub reference: Observation,
}

/// The spec of corpus module `i` for `seed`; `attempt` re-draws it.
/// Block `b` of a round gives slot `j` archetype `(b + 3j) mod 8` of the
/// round's seeded order: five distinct archetypes per block, and all
/// eight per slot over the round.
pub fn spec(seed: u64, i: usize, attempt: u64) -> ProgramSpec {
    let mut kinds = ProgramKind::ALL;
    Rng(mix(seed) ^ (i / ROUND) as u64).shuffle(&mut kinds);
    let (block, slot) = ((i % ROUND) / BLOCK, i % BLOCK);
    ProgramSpec {
        name: format!("s{seed}_{i:04}"),
        kind: kinds[(block + 3 * slot) % kinds.len()],
        size: SLOTS[slot],
        seed: mix(mix(seed) ^ i as u64 ^ (attempt << 40)),
    }
}

/// Runs `main` under the reference budget.
pub fn run(m: &Module) -> ExecOutcome {
    Interpreter::with_config(m, REFERENCE).run("main", &[])
}

/// Corpus module `i`, re-drawn until its text is in its class's band and
/// its reference run finishes.
fn entry(seed: u64, i: usize) -> Entry {
    (0..)
        .find_map(|attempt| {
            let spec = spec(seed, i, attempt);
            let m = generate(&spec);
            let text = print_module(&m);
            if !text_bytes(spec.size).contains(&text.len()) {
                return None;
            }
            let out = run(&m);
            out.result.is_ok().then(|| Entry {
                text,
                reference: out.observation(),
            })
        })
        .expect("an unbounded range always yields")
}

/// The first `n` corpus modules for `seed`.
pub fn corpus(seed: u64, n: usize) -> Vec<Entry> {
    par_map(n, |i| entry(seed, i))
}

/// Maps `f` over `0..n` on [`THREADS`] threads, keeping index order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("input thread panicked"))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Parses, verifies and runs an output module. `Err` says why the output
/// is wrong; `Ok` hands back the module and its run.
pub fn check(text: &str, reference: &Observation) -> Result<(Module, ExecOutcome), String> {
    let m = parse_module(text).map_err(|e| format!("output does not parse: {e:?}"))?;
    verify_module(&m).map_err(|e| format!("output does not verify: {e}"))?;
    let out = run(&m);
    if out.observation() != *reference {
        return Err(format!(
            "output of '{}' behaves differently from its input",
            m.name
        ));
    }
    Ok((m, out))
}

/// Draws the 24 `train` programs from the training suite, per
/// [`TRAIN_QUOTAS`], in a seeded order.
pub fn draw_training(seed: u64, suite: &[Benchmark]) -> Vec<Benchmark> {
    let mut rng = Rng(mix(seed));
    let mut picked = Vec::new();
    for (size, quota) in TRAIN_QUOTAS {
        let mut class: Vec<&Benchmark> = suite.iter().filter(|b| b.spec.size == size).collect();
        rng.shuffle(&mut class);
        picked.extend(class.into_iter().take(quota).cloned());
    }
    rng.shuffle(&mut picked);
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(seed: u64) -> Vec<String> {
        corpus(seed, 2 * BLOCK)
            .into_iter()
            .map(|e| e.text)
            .collect()
    }

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        let one = texts(1);
        assert_eq!(one, texts(1));
        assert!(one.iter().zip(texts(2)).all(|(a, b)| *a != b));
        for (i, t) in one.iter().enumerate() {
            assert!(text_bytes(spec(1, i, 0).size).contains(&t.len()));
        }
    }

    #[test]
    fn blocks_mix_sizes_and_rounds_cover_every_archetype_per_slot() {
        let kind = |k: ProgramKind| ProgramKind::ALL.iter().position(|&a| a == k).unwrap();
        for round in 0..2 {
            let specs: Vec<ProgramSpec> = (round * ROUND..(round + 1) * ROUND)
                .map(|i| spec(7, i, 0))
                .collect();
            for block in specs.chunks(BLOCK) {
                let sizes: Vec<SizeClass> = block.iter().map(|s| s.size).collect();
                assert_eq!(sizes, SLOTS);
                let mut kinds: Vec<usize> = block.iter().map(|s| kind(s.kind)).collect();
                kinds.sort_unstable();
                kinds.dedup();
                assert_eq!(kinds.len(), BLOCK, "distinct archetypes in a block");
            }
            for slot in 0..BLOCK {
                let mut kinds: Vec<usize> = specs[slot..]
                    .iter()
                    .step_by(BLOCK)
                    .map(|s| kind(s.kind))
                    .collect();
                kinds.sort_unstable();
                assert_eq!(kinds, (0..8).collect::<Vec<_>>(), "slot {slot}");
            }
        }
    }

    #[test]
    fn training_draw_keeps_the_quotas() {
        let suite = posetrl_workloads::training_suite();
        let a = draw_training(1, &suite);
        let names = |v: &[Benchmark]| v.iter().map(|b| b.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&draw_training(1, &suite)));
        assert_ne!(names(&a), names(&draw_training(2, &suite)));
        for (size, quota) in TRAIN_QUOTAS {
            assert_eq!(a.iter().filter(|b| b.spec.size == size).count(), quota);
        }
    }
}
