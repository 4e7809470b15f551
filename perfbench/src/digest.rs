//! Output digests: FNV-1a over rendered text, `Debug` output or raw bytes,
//! checked against the reference digests recorded in `digests.txt`.

use std::collections::BTreeMap;
use std::fmt::{self, Debug, Write as _};

/// Streaming 64-bit FNV-1a. Implements [`fmt::Write`], so `Debug` output
/// hashes without being collected into a string first.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold in a value's `Debug` form: every `f64` prints its shortest
    /// round-trip form, so equal digests mean bit-equal values.
    pub fn debug<T: Debug + ?Sized>(&mut self, value: &T) {
        write!(self, "{value:?}").expect("hashing never fails");
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

pub fn of_text(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.value()
}

pub fn of_debug<T: Debug + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv::new();
    h.debug(value);
    h.value()
}

/// Named digests of one iteration's outputs, in output order.
pub type Digests = Vec<(String, u64)>;

/// The recorded reference digests for one workload key and seed, if any.
/// Lines of `digests.txt` read `<key> <seed> <output> <hex digest>`; lines
/// starting with `#` are comments.
pub fn reference(key: &str, seed: u64) -> Option<BTreeMap<String, u64>> {
    let mut found = BTreeMap::new();
    let lines = include_str!("../digests.txt").lines();
    for line in lines.filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [k, s, name, hex] = f[..] {
            if k == key && s.parse() == Ok(seed) {
                let v = u64::from_str_radix(hex, 16).expect("digests.txt holds hex digests");
                found.insert(name.to_string(), v);
            }
        }
    }
    (!found.is_empty()).then_some(found)
}

/// Print digests in the `digests.txt` line format.
pub fn print_lines(key: &str, seed: u64, digests: &Digests) {
    for (name, v) in digests {
        println!("{key} {seed} {name} {v:016x}");
    }
}
