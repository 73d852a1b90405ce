//! Everything the program under test receives is made here from the
//! seed: the same seed gives the same documents and the same requests.

use std::io::Write;
use std::path::Path;
use xmorph_core::{Engine, QueryRequest};
use xmorph_datagen::XmarkConfig;
use xmorph_server::proto::fnv1a64;

/// The small-result family of the paper's §IX, cycled by `serve.point`.
pub const POINT_GUARDS: &[&str] = &[
    "MORPH people [ person [ address [ city ] ] ]",
    "MORPH item [ name location quantity ]",
    "MORPH person [ name ]",
    "MORPH open_auction [ initial current itemref ]",
];

/// The paper's Fig. 10 guard: the whole document comes back.
pub const FULL_GUARDS: &[&str] = &["MUTATE site"];

/// Read beside the writes of `mixed.rw` and after each load of
/// `load.stream`: every `UPDATE`/`INSERT`/`DELETE` of a person changes it.
pub const CANARY: &str = "MORPH person [ name ]";

/// The canary's render on `engine`, one thread.
pub fn canary(engine: &Engine) -> Result<String, String> {
    let req = QueryRequest::builder(CANARY).threads(1).build();
    Ok(engine
        .query(&req)
        .map_err(|e| format!("{CANARY}: {e}"))?
        .xml)
}

fn xmark(seed: u64, factor: f64) -> XmarkConfig {
    XmarkConfig {
        factor,
        seed,
        ..XmarkConfig::default()
    }
}

pub fn xmark_string(seed: u64, factor: f64) -> String {
    xmark(seed, factor).generate()
}

/// Stream the document to `path`; returns its size in bytes.
pub fn xmark_file(seed: u64, factor: f64, path: &Path) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    let bytes = xmark(seed, factor).generate_to(&mut out).map_err(io)?;
    out.flush().map_err(io)?;
    Ok(bytes)
}

/// What a correct reply looks like: its length and FNV-1a-64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    pub len: usize,
    pub fnv: u64,
}

impl Fingerprint {
    pub fn of(xml: &str) -> Fingerprint {
        Fingerprint {
            len: xml.len(),
            fnv: fnv1a64(xml.as_bytes()),
        }
    }
}

/// SplitMix64: the request stream's own generator, so the requests do
/// not depend on how many numbers the document generator drew.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
