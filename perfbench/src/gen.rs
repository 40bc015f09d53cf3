//! Seeded input generation: request streams, Zipf choices, read mixes.
//!
//! Everything `ledgerd` receives is produced here from the workload
//! seed. The same seed gives byte-identical signed requests (ECDSA
//! signing is RFC-6979 deterministic), so two runs with one seed send
//! the same bytes; different seeds give different payloads and clues.

use ledgerdb_core::TxRequest;
use ledgerdb_crypto::keys::KeyPair;

/// Payload size of every generated append.
pub const PAYLOAD_BYTES: usize = 256;
/// Number of distinct clue names the Zipf distribution draws from.
pub const CLUE_NAMES: usize = 1024;
/// Zipf exponent for clue and journal choices.
pub const ZIPF_S: f64 = 0.99;
/// `ledgerd --seed`: fixes the LSP identity and the one registered
/// member whose key signs every request. Independent of the workload
/// seed, so the server side never sees the workload seed.
pub const LEDGERD_SEED: &str = "perfbench";

/// The member key `ledgerd --seed perfbench` registers.
pub fn signing_key() -> KeyPair {
    KeyPair::from_seed(format!("{LEDGERD_SEED}-alice").as_bytes())
}

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent stream of a workload seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Clue name for a Zipf rank.
pub fn clue_name(rank: usize) -> String {
    format!("clue-{rank:04}")
}

/// Maps a Zipf rank to a jsn in `0..n`, so popular journals are spread
/// over the history instead of clustered at its start. A bijection
/// whenever `n` is not a multiple of the (prime) stride.
pub fn rank_to_jsn(rank: usize, n: u64) -> u64 {
    (rank as u64).wrapping_mul(1_000_003) % n
}

/// `count` signed append requests of stream `stream` of `seed`: 256 B
/// payloads and one Zipf-chosen clue each, nonces unique per stream.
/// Signing is spread over `threads` threads; the output does not
/// depend on the thread count.
pub fn requests(seed: u64, stream: u64, count: usize, threads: usize) -> Vec<TxRequest> {
    let key = signing_key();
    let zipf = Zipf::new(CLUE_NAMES, ZIPF_S);
    let mut rng = Rng::new(seed, stream);
    let unsigned: Vec<(Vec<u8>, String, u64)> = (0..count)
        .map(|i| {
            let payload: Vec<u8> = (0..PAYLOAD_BYTES).map(|_| rng.next_u64() as u8).collect();
            let clue = clue_name(zipf.sample(&mut rng));
            (payload, clue, (stream << 40) | i as u64)
        })
        .collect();
    let threads = threads.max(1);
    let chunk = count.div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = unsigned
            .chunks(chunk)
            .map(|part| {
                let key = &key;
                s.spawn(move || {
                    part.iter()
                        .map(|(payload, clue, nonce)| {
                            TxRequest::signed(key, payload.clone(), vec![clue.clone()], *nonce)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("signing thread panicked"))
            .collect()
    })
}

/// One kind of verified read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// Existence proof of one journal.
    Prove,
    /// Existence proofs of [`BATCH_PROOFS`] journals in one frame.
    ProveBatch,
    /// Clue lineage proof.
    ProveClue,
    /// State-commitment proof of a clue's latest payload digest.
    ProveState,
    /// Journal + payload, checked against a proven tx hash.
    GetTx,
}

/// jsns per `ProveBatch` read.
pub const BATCH_PROOFS: usize = 16;

/// The read mix: (kind, weight in percent).
pub const READ_MIX: [(ReadKind, u32); 5] = [
    (ReadKind::Prove, 50),
    (ReadKind::ProveBatch, 15),
    (ReadKind::ProveClue, 15),
    (ReadKind::ProveState, 10),
    (ReadKind::GetTx, 10),
];

/// The read mix over the newest journals while a writer appends. Clue
/// and state proofs are left out: the server builds them from its live
/// state, unsealed tail included, so a client can only verify them
/// once the tail is sealed.
pub const RECENT_READ_MIX: [(ReadKind, u32); 3] = [
    (ReadKind::Prove, 70),
    (ReadKind::ProveBatch, 15),
    (ReadKind::GetTx, 15),
];

/// Draw the next read kind from `mix` (weights sum to 100).
pub fn read_kind(rng: &mut Rng, mix: &[(ReadKind, u32)]) -> ReadKind {
    let mut x = rng.below(100) as u32;
    for &(kind, weight) in mix {
        if x < weight {
            return kind;
        }
        x -= weight;
    }
    unreachable!("read mix weights sum to 100")
}
