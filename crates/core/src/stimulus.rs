//! The label stimulus: plain xorshift64 (13/7/17), one low bit per draw,
//! drawn 64 cycles at a time.
//!
//! [`xorshift64`] is the definition, and the oracle of the block generator
//! [`Stimulus`]. The generator is linear over GF(2), so both the next 64
//! output bits and the state 64 steps on are XORs of per-byte table
//! entries; a 64×64 bit transpose then turns the draw stream, input by
//! input and cycle by cycle, into one word per input.

use std::sync::OnceLock;

/// One step of the scalar generator; returns the drawn bit.
pub(crate) fn xorshift64(state: &mut u64) -> bool {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state & 1 == 1
}

/// Per-byte jump tables of 64 [`xorshift64`] steps.
struct Tables {
    /// `draws[i][v]`: the 64 bits drawn from a state whose byte `i` is `v`
    /// and whose other bytes are zero, the first in bit 0.
    draws: [[u64; 256]; 8],
    /// `states[i][v]`: that state 64 steps on.
    states: [[u64; 256]; 8],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Box<Tables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new(Tables {
            draws: [[0; 256]; 8],
            states: [[0; 256]; 8],
        });
        for byte in 0..8 {
            for bit in 0..8 {
                let mut state = 1u64 << (8 * byte + bit);
                let mut draws = 0u64;
                for k in 0..64 {
                    draws |= u64::from(xorshift64(&mut state)) << k;
                }
                t.draws[byte][1 << bit] = draws;
                t.states[byte][1 << bit] = state;
            }
            // Linearity: a byte value's entry is the XOR of its bits'.
            for v in 3..256usize {
                let low = v & v.wrapping_neg();
                if low != v {
                    t.draws[byte][v] = t.draws[byte][low] ^ t.draws[byte][v ^ low];
                    t.states[byte][v] = t.states[byte][low] ^ t.states[byte][v ^ low];
                }
            }
        }
        t
    })
}

/// Transposes a 64×64 bit matrix in place: bit `j` of row `k` moves to bit
/// `k` of row `j`.
fn transpose64(rows: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_ffff_ffffu64;
    while width != 0 {
        let mut k = 0;
        while k < 64 {
            for r in k..k + width {
                let t = ((rows[r] >> width) ^ rows[r + width]) & mask;
                rows[r + width] ^= t;
                rows[r] ^= t << width;
            }
            k += 2 * width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// The label stimulus drawn 64 cycles per step: the same bits in the same
/// order, and the same state after every block, as drawing one
/// [`xorshift64`] bit per input per cycle.
#[derive(Debug, Clone)]
pub(crate) struct Stimulus {
    state: u64,
    /// One block's draws, 64 per word in draw order, plus a zero word that
    /// the last transpose window may overlap.
    stream: Vec<u64>,
}

impl Stimulus {
    /// A generator in state `state` (nonzero).
    pub(crate) fn new(state: u64) -> Stimulus {
        Stimulus {
            state,
            stream: Vec::new(),
        }
    }

    /// The generator's state.
    #[cfg(test)]
    pub(crate) fn state(&self) -> u64 {
        self.state
    }

    /// Draws `len` cycles (at most 64) for `words.len()` inputs: bit `k` of
    /// `words[j]` becomes input `j`'s draw in cycle `k`, and bits from `len`
    /// up are zero. Cycle by cycle, input by input, this is
    /// `len * words.len()` [`xorshift64`] steps.
    pub(crate) fn fill(&mut self, words: &mut [u64], len: u32) {
        let inputs = words.len();
        let len = len as usize;
        debug_assert!(len <= 64, "a block is at most 64 cycles");
        let (full, rest) = ((len * inputs) / 64, (len * inputs) % 64);
        self.stream.clear();
        self.stream.resize(inputs + 1, 0);
        let t = tables();
        for w in &mut self.stream[..full] {
            let s = self.state;
            let mut out = 0;
            let mut next = 0;
            for byte in 0..8 {
                let v = (s >> (8 * byte)) as u8 as usize;
                out ^= t.draws[byte][v];
                next ^= t.states[byte][v];
            }
            *w = out;
            self.state = next;
        }
        if rest > 0 {
            let mut w = 0;
            for k in 0..rest {
                w |= u64::from(xorshift64(&mut self.state)) << k;
            }
            self.stream[full] = w;
        }

        // Row k holds cycle k's draws for inputs `first..first + 64`; the
        // transpose turns row j into input `first + j`'s word.
        let mut rows = [0u64; 64];
        for first in (0..inputs).step_by(64) {
            for (k, row) in rows[..len].iter_mut().enumerate() {
                let at = k * inputs + first;
                let pair =
                    u128::from(self.stream[at / 64]) | u128::from(self.stream[at / 64 + 1]) << 64;
                *row = (pair >> (at % 64)) as u64;
            }
            rows[len..].fill(0);
            transpose64(&mut rows);
            let group = (inputs - first).min(64);
            words[first..first + group].copy_from_slice(&rows[..group]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_match_the_scalar_generator() {
        for inputs in [0usize, 1, 63, 64, 65, 130] {
            for len in 1..=64u32 {
                let seed =
                    (inputs as u64 * 64 + u64::from(len)).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                let mut block = Stimulus::new(seed);
                let mut scalar = seed;
                for round in 0..3 {
                    let mut words = vec![0u64; inputs];
                    block.fill(&mut words, len);
                    let mut expect = vec![0u64; inputs];
                    for k in 0..len {
                        for w in &mut expect {
                            *w |= u64::from(xorshift64(&mut scalar)) << k;
                        }
                    }
                    let case = format!("{inputs} inputs, {len} cycles, block {round}");
                    assert_eq!(words, expect, "{case}");
                    assert_eq!(block.state(), scalar, "{case}");
                }
            }
        }
    }
}
