//! Hash-bucket word tokenizer for RTL and cell-description text.
//!
//! The corpus language is tiny (RTL keywords, signal names, datasheet
//! vocabulary), so a deterministic hash-bucket vocabulary replaces learned
//! BPE: every lowercased word or punctuation mark maps to
//! `4 + fnv1a(word) % buckets`. Ids 0–3 are reserved control tokens.

/// Reserved token ids.
pub mod special {
    /// Padding.
    pub const PAD: usize = 0;
    /// Sequence-start classifier token.
    pub const CLS: usize = 1;
    /// Separator (reserved; no encoding emits it).
    pub const SEP: usize = 2;
    /// Mask token for masked-token pretraining.
    pub const MASK: usize = 3;
    /// Number of reserved ids.
    pub const COUNT: usize = 4;
}

/// A deterministic hash-bucket tokenizer.
///
/// # Examples
///
/// ```
/// use moss_llm::Tokenizer;
///
/// let tok = Tokenizer::new(1024);
/// let ids = tok.encode("assign y = a + b;", 16);
/// assert_eq!(ids[0], moss_llm::special::CLS);
/// assert!(ids.iter().all(|&t| t < tok.vocab_size()));
/// // Deterministic.
/// assert_eq!(ids, tok.encode("assign y = a + b;", 16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tokenizer {
    buckets: usize,
}

impl Tokenizer {
    /// A tokenizer with the given number of hash buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is 0.
    pub fn new(buckets: usize) -> Tokenizer {
        assert!(buckets > 0, "bucket count must be positive");
        Tokenizer { buckets }
    }

    /// Total vocabulary size including special tokens.
    pub fn vocab_size(&self) -> usize {
        self.buckets + special::COUNT
    }

    /// Splits text into word/punctuation strings (lowercased).
    pub fn words(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() || ch == '_' {
                cur.extend(ch.to_lowercase());
            } else {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                if !ch.is_whitespace() {
                    out.push(ch.to_string());
                }
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    /// The bucket id of one word.
    pub fn word_id(&self, word: &str) -> usize {
        special::COUNT + (fnv1a(word.as_bytes()) as usize % self.buckets)
    }

    /// Encodes text as `[CLS] tokens…`, truncated to `max_len`.
    pub fn encode(&self, text: &str, max_len: usize) -> Vec<usize> {
        let mut ids = vec![special::CLS];
        for w in Self::words(text) {
            if ids.len() >= max_len {
                break;
            }
            ids.push(self.word_id(&w));
        }
        ids
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_split_punctuation() {
        assert_eq!(
            Tokenizer::words("assign y = a+b;"),
            vec!["assign", "y", "=", "a", "+", "b", ";"]
        );
    }

    #[test]
    fn words_lowercase_and_keep_underscores() {
        assert_eq!(Tokenizer::words("Wb_Data MUX2"), vec!["wb_data", "mux2"]);
    }

    #[test]
    fn encode_truncates() {
        let tok = Tokenizer::new(64);
        let ids = tok.encode("a b c d e f g h", 4);
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn same_word_same_id_different_words_usually_differ() {
        let tok = Tokenizer::new(4096);
        assert_eq!(tok.word_id("counter"), tok.word_id("counter"));
        assert_ne!(tok.word_id("counter"), tok.word_id("shift"));
    }

    #[test]
    fn ids_stay_in_vocab() {
        let tok = Tokenizer::new(10);
        for w in ["x", "yy", "zzz", "module", "=", "&"] {
            assert!(tok.word_id(w) < tok.vocab_size());
            assert!(tok.word_id(w) >= special::COUNT);
        }
    }
}
