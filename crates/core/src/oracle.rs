//! Symbol-collection oracles: when has a receiver gathered enough?
//!
//! Two interchangeable models (DESIGN.md substitution S2):
//!
//! * [`Oracle::Counting`] counts *distinct* ESIs and declares success per
//!   the RaptorQ overhead-failure model: with `k + o` distinct symbols
//!   decoding fails with probability `10^-(2(o+1))` (≈1% at +0, 10⁻⁴ at
//!   +1, 10⁻⁶ at +2 — the figure the paper quotes). The required
//!   overhead is drawn once per session from a deterministic
//!   session-keyed hash, so runs are reproducible. A session whose
//!   source symbols all arrive completes via the systematic fast path
//!   regardless (no decode happens at all).
//! * [`Oracle::Real`] runs the actual [`rq`] decoder over real bytes and
//!   only reports completion when decoding genuinely succeeds — and the
//!   decoded bytes equal the session's canonical object. Tests use it to
//!   validate the counting model. Once it has succeeded it holds no
//!   symbol bytes.

use rq::{CodeMode, CodeParams, Decoder};

use crate::wire::SessionId;

/// Deterministic per-session draw of the extra symbols needed beyond
/// `k`, following `P(need > o) = 10^-(2(o+1))`.
pub fn required_overhead(session: SessionId, seed: u64) -> usize {
    let h = rq::rand::hash2(seed ^ 0x0BAC_1E55, u64::from(session.0));
    // Map to a uniform in [0,1).
    let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let mut o = 0usize;
    let mut p = 1e-2f64;
    while u < p {
        o += 1;
        p *= 1e-2;
        if o >= 5 {
            break; // beyond 10⁻¹⁰: numerically irrelevant, cap the loop
        }
    }
    o
}

/// A set of ESIs as a growable bitmap. ESIs are dense — senders hand
/// out sources `0..k` and then repairs strided just above `k` — so a
/// bit per ESI up to the largest seen (a few hundred bytes per
/// session) replaces a hash and a rehash-on-growth per symbol arrival.
#[derive(Debug, Clone, Default)]
pub struct EsiSet {
    words: Vec<u64>,
    len: usize,
}

impl EsiSet {
    /// Add `esi`; `true` if it was not in the set.
    pub fn insert(&mut self, esi: u32) -> bool {
        let (word, bit) = ((esi / 64) as usize, 1u64 << (esi % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Distinct ESIs in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no ESI was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Receiver-side completion oracle.
pub enum Oracle {
    /// Distinct-symbol counting with the RaptorQ failure model.
    Counting {
        /// Source symbols in the object.
        k: usize,
        /// Extra symbols required for this session's (virtual) decode.
        required_overhead: usize,
        /// Distinct ESIs seen.
        seen: EsiSet,
        /// Distinct *source* ESIs seen (systematic fast path).
        source_seen: usize,
    },
    /// Real decoding of real bytes.
    Real {
        /// Whose canonical object ([`session_object`]) must come out.
        session: SessionId,
        /// The in-progress decoder; `None` once decode succeeded — the
        /// received symbols are freed with it.
        decoder: Option<Decoder>,
        /// Distinct symbols the successful decode had collected.
        received: usize,
    },
}

impl Oracle {
    /// Counting oracle for an object of `k` symbols.
    pub fn counting(session: SessionId, k: usize, seed: u64) -> Self {
        Oracle::Counting {
            k,
            required_overhead: required_overhead(session, seed),
            seen: EsiSet::default(),
            source_seen: 0,
        }
    }

    /// Real oracle: builds the decoder for the canonical session object
    /// (see [`session_object`]). The block parameters are arithmetic, so
    /// nothing is encoded here.
    ///
    /// The last argument has one value and is ignored; it stays because
    /// `bench_e2e/src/layers.rs` passes it (ROADMAP, "API the benchmark
    /// pins").
    pub fn real(session: SessionId, data_len: usize, symbol_size: usize, _: CodeMode) -> Self {
        let code = CodeParams::systematic(data_len, symbol_size)
            .expect("session object is non-empty and fits one block");
        Oracle::Real {
            session,
            decoder: Some(Decoder::new(code)),
            received: 0,
        }
    }

    /// Record a received symbol. `bytes` is `None` under counting mode
    /// (the simulation does not materialize symbol bodies at scale).
    /// Returns `true` if the object just became recoverable.
    pub fn add(&mut self, esi: u32, bytes: Option<Vec<u8>>) -> bool {
        match self {
            Oracle::Counting {
                k,
                required_overhead,
                seen,
                source_seen,
            } => {
                if seen.insert(esi) && (esi as usize) < *k {
                    *source_seen += 1;
                }
                // Complete on the systematic fast path or at k+overhead
                // distinct symbols.
                *source_seen == *k || seen.len() >= *k + *required_overhead
            }
            Oracle::Real {
                session,
                decoder,
                received,
            } => {
                let Some(dec) = decoder else {
                    return true;
                };
                dec.push(esi, bytes.expect("real oracle requires symbol bytes"));
                if dec.symbols_received() >= dec.params().k {
                    if let Ok(data) = dec.try_decode() {
                        assert!(
                            data == session_object(*session, dec.params().data_len),
                            "real oracle decoded wrong bytes for session {}",
                            session.0
                        );
                        *received = dec.symbols_received();
                        *decoder = None;
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Distinct symbols collected so far.
    pub fn symbols_received(&self) -> usize {
        match self {
            Oracle::Counting { seen, .. } => seen.len(),
            Oracle::Real {
                decoder, received, ..
            } => decoder
                .as_ref()
                .map_or(*received, Decoder::symbols_received),
        }
    }

    /// Upper bound on the fresh symbols still needed to recover the
    /// object: the decode threshold minus the distinct symbols already
    /// collected. Batch sweep recovery caps its re-pull bursts with this
    /// so a recovery round never requests more symbols than the session
    /// could possibly use.
    pub fn symbols_needed(&self) -> u64 {
        match self {
            Oracle::Counting {
                k,
                required_overhead,
                seen,
                ..
            } => (*k + *required_overhead).saturating_sub(seen.len()) as u64,
            // The real decoder may need a little overhead beyond k, so
            // the bound stays at least 1 until decode succeeds.
            Oracle::Real { decoder, .. } => decoder.as_ref().map_or(0, |d| {
                (d.params().k.saturating_sub(d.symbols_received()) as u64).max(1)
            }),
        }
    }
}

/// The canonical (deterministic) object bytes for a session — what a
/// "real" sender would read from storage. Both the real oracle and the
/// real-mode sender generate the same bytes from the session id.
pub fn session_object(session: SessionId, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut state = u64::from(session.0) ^ 0xDA7A_B10C;
    while out.len() < len {
        state = rq::rand::mix64(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq::Encoder;

    #[test]
    fn overhead_distribution_shape() {
        // ~99% of sessions need +0, ~1% need more; none need > 5.
        let n = 20_000u32;
        let mut extra = [0usize; 6];
        for s in 0..n {
            let o = required_overhead(SessionId(s), 7);
            extra[o.min(5)] += 1;
        }
        let frac0 = extra[0] as f64 / n as f64;
        assert!(frac0 > 0.985 && frac0 < 0.995, "P(+0) = {frac0}");
        assert!(extra[1] > 0, "some sessions should need +1");
        assert!(
            extra[3] + extra[4] + extra[5] == 0,
            "overhead beyond +2 at n=20k is absurd"
        );
    }

    #[test]
    fn overhead_deterministic() {
        assert_eq!(
            required_overhead(SessionId(12), 3),
            required_overhead(SessionId(12), 3)
        );
    }

    #[test]
    fn counting_systematic_fast_path() {
        // Even a session that drew +1 overhead completes when all k
        // source symbols arrive (no decode needed at all).
        let mut o = Oracle::Counting {
            k: 5,
            required_overhead: 1,
            seen: EsiSet::default(),
            source_seen: 0,
        };
        for esi in 0..4 {
            assert!(!o.add(esi, None));
        }
        assert!(o.add(4, None), "all source symbols ⇒ complete");
    }

    #[test]
    fn counting_overhead_path() {
        let mut o = Oracle::Counting {
            k: 5,
            required_overhead: 1,
            seen: EsiSet::default(),
            source_seen: 0,
        };
        // Lose source symbol 0; feed repairs instead.
        for esi in 1..5 {
            assert!(!o.add(esi, None));
        }
        assert!(!o.add(100, None), "k distinct but +1 required");
        assert!(o.add(101, None), "k+1 distinct ⇒ complete");
    }

    #[test]
    fn counting_ignores_duplicates() {
        let mut o = Oracle::Counting {
            k: 3,
            required_overhead: 0,
            seen: EsiSet::default(),
            source_seen: 0,
        };
        assert!(!o.add(7, None));
        assert!(!o.add(7, None));
        assert_eq!(o.symbols_received(), 1);
    }

    #[test]
    fn esi_set_counts_distinct_like_a_hash_set() {
        // Sources then strided repairs with gaps and repeats, across
        // several word boundaries and arriving out of order.
        let mut set = EsiSet::default();
        let mut reference = std::collections::HashSet::new();
        assert!(set.is_empty());
        for i in 0..2_000u32 {
            let esi = (i * 7919) % 613 + if i % 3 == 0 { 640 } else { 0 };
            assert_eq!(set.insert(esi), reference.insert(esi), "esi {esi}");
            assert_eq!(set.len(), reference.len());
        }
    }

    #[test]
    fn real_oracle_end_to_end() {
        let session = SessionId(77);
        let len = 10 * 512;
        let data = session_object(session, len);
        let enc = Encoder::new(&data, 512).unwrap();
        let k = enc.params().k as u32;
        let mut o = Oracle::real(session, len, 512, CodeMode::Systematic);
        // Drop one source symbol, push the rest plus two repairs.
        let mut done = false;
        for esi in 1..k {
            done = o.add(esi, Some(enc.symbol(esi)));
        }
        assert!(!done);
        done = o.add(k + 4, Some(enc.symbol(k + 4)));
        let done2 = o.add(k + 9, Some(enc.symbol(k + 9)));
        assert!(done || done2, "k+1 distinct symbols should decode");
        // A completed oracle keeps the count and nothing else.
        assert!(matches!(o, Oracle::Real { decoder: None, .. }));
        assert!(o.symbols_received() >= k as usize);
        assert_eq!(o.symbols_needed(), 0);
        assert!(o.add(k + 11, Some(enc.symbol(k + 11))), "stays complete");
    }

    #[test]
    fn real_oracle_parameters_match_the_encoder() {
        let session = SessionId(3);
        let len = 40 * 64 - 9;
        let enc = Encoder::new(&session_object(session, len), 64).unwrap();
        let Oracle::Real {
            decoder: Some(dec), ..
        } = Oracle::real(session, len, 64, CodeMode::Systematic)
        else {
            panic!("a fresh real oracle is decoding");
        };
        assert_eq!(dec.params(), enc.params());
    }

    #[test]
    fn session_object_deterministic_and_distinct() {
        let a = session_object(SessionId(1), 1000);
        let b = session_object(SessionId(1), 1000);
        let c = session_object(SessionId(2), 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
    }
}
