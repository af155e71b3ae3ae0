//! Symbol-collection oracles: when has a receiver gathered enough?
//!
//! Two interchangeable models:
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
//!   validate the counting model. Symbols arrive as ESIs alone (the wire
//!   carries no bytes), so the oracle writes them into the decoder
//!   itself. The code is systematic: source symbols go to the application
//!   as they arrive, and their bytes are needed only to solve for the
//!   missing ones. So a source ESI is only recorded (an [`EsiSet`] bit)
//!   until the first decode attempt, which writes every recorded source
//!   from the object's generator ([`rq::rand::mix64_stream`]) and then
//!   decodes; after a failed attempt sources are written as they arrive.
//!   A repair symbol is written at arrival, through an encoder over the
//!   object that the oracle builds at the first repair ESI; a session
//!   that finishes on source symbols alone never builds one. Before its
//!   decode it holds symbol storage for the repairs that have arrived
//!   (and, after a failed attempt, the sources), and once it has
//!   succeeded neither storage nor encoder again.

use rq::{CodeMode, CodeParams, DecodeStats, Decoded, Decoder, Encoder};

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

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ESIs in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..).zip(&self.words).flat_map(|(i, &word)| {
            let mut left = word;
            std::iter::from_fn(move || {
                let bit = left.trailing_zeros();
                left &= left.wrapping_sub(1);
                (bit < 64).then_some(i * 64 + bit)
            })
        })
    }

    /// Empty the set, keeping its words' allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
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
        /// received symbols are freed with it. Boxed, like the encoder:
        /// sessions stay installed after their decode.
        decoder: Option<Box<Decoder>>,
        /// Source ESIs that arrived without bytes and are not written
        /// into the decoder yet: held until the first decode attempt.
        held: EsiSet,
        /// The encoder over the canonical object that writes each repair
        /// symbol arriving without bytes: built at the first such symbol
        /// before the decode, freed with the decoder. Boxed: sessions
        /// stay installed after their decode, so an inline encoder would
        /// grow every one of them.
        encoder: Option<Box<Encoder>>,
        /// Whether this oracle ever built its encoder.
        encoded: bool,
        /// Distinct symbols the successful decode had collected.
        received: usize,
        /// The decode paths the decoder took, kept past its release.
        stats: DecodeStats,
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
            decoder: Some(Box::new(Decoder::new(code))),
            held: EsiSet::default(),
            encoder: None,
            encoded: false,
            received: 0,
            stats: DecodeStats::default(),
        }
    }

    /// Record a received symbol. `bytes` is `None` when the symbol came
    /// over the simulated wire, which carries none: the counting oracle
    /// needs none, and the real one writes the symbol into the decoder's
    /// storage itself — a repair symbol at once, through its own
    /// encoder, and a source symbol from the object's generator at the
    /// first decode attempt (at once after a failed one). A duplicate is
    /// not written at all. Returns `true` if the object just became
    /// recoverable.
    ///
    /// Feed a real oracle either with bytes or without: a source ESI
    /// given both ways before the first decode attempt counts twice
    /// until then.
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
                held,
                encoder,
                encoded,
                received,
                stats,
            } => {
                let Some(dec) = decoder else {
                    return true;
                };
                let code = dec.params();
                match bytes {
                    Some(bytes) => dec.push(esi, bytes),
                    None if (esi as usize) < code.k => held.insert(esi),
                    None => {
                        let enc = encoder.get_or_insert_with(|| {
                            *encoded = true;
                            Box::new(object_encoder(*session, code.data_len, code.symbol_size))
                        });
                        dec.push_with(esi, |slot| enc.symbol_into(esi, slot))
                    }
                };
                // From `k` distinct symbols on, write the held sources and
                // try to decode in place; a success is checked against the
                // canonical object and releases the decoder and the
                // encoder.
                if dec.symbols_received() + held.len() < code.k {
                    return false;
                }
                for esi in held.iter() {
                    // The zeroed slot keeps a short last symbol's padding.
                    let at = esi as usize * code.symbol_size;
                    let len = code.symbol_size.min(code.data_len - at);
                    dec.push_with(esi, |slot| {
                        write_session_object_at(*session, at, &mut slot[..len])
                    });
                }
                held.clear();
                let decoded = match dec.decode_in_place() {
                    Ok(object) => {
                        assert!(
                            is_session_object(*session, object),
                            "real oracle decoded wrong bytes for session {}",
                            session.0
                        );
                        true
                    }
                    Err(_) => false,
                };
                *stats = dec.decode_stats();
                if decoded {
                    *received = dec.symbols_received();
                    *decoder = None;
                    *encoder = None;
                }
                decoded
            }
        }
    }

    /// Whether this oracle built an encoder: a real oracle does at its
    /// first repair symbol that came without bytes before its decode, the
    /// counting one never.
    pub fn encoded(&self) -> bool {
        matches!(self, Oracle::Real { encoded: true, .. })
    }

    /// Distinct symbols collected so far.
    pub fn symbols_received(&self) -> usize {
        match self {
            Oracle::Counting { seen, .. } => seen.len(),
            Oracle::Real {
                decoder,
                held,
                received,
                ..
            } => decoder
                .as_ref()
                .map_or(*received, |d| d.symbols_received() + held.len()),
        }
    }

    /// Bytes of symbol storage held: the decoder's (see
    /// [`Decoder::storage_bytes`]) until the decode, 0 after it and
    /// under counting. Held sources take none.
    pub fn storage_bytes(&self) -> usize {
        match self {
            Oracle::Real {
                decoder: Some(d), ..
            } => d.storage_bytes(),
            _ => 0,
        }
    }

    /// The decode paths taken so far (all zero under counting, which
    /// never decodes).
    pub fn decode_stats(&self) -> DecodeStats {
        match self {
            Oracle::Counting { .. } => DecodeStats::default(),
            Oracle::Real { stats, .. } => *stats,
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
            Oracle::Real { decoder, held, .. } => decoder.as_ref().map_or(0, |d| {
                let have = d.symbols_received() + held.len();
                (d.params().k.saturating_sub(have) as u64).max(1)
            }),
        }
    }
}

/// The counter of word `i` (eight little-endian bytes) of a session's
/// canonical object: the SplitMix64 *counter* stream, word `i` =
/// `mix64(base + i·γ)`. Every word is a function of its index alone, so
/// the object can be written or checked from any offset and consecutive
/// words do not wait on each other — [`rq::rand::mix64_stream`] makes
/// eight at a time with AVX-512.
fn word_counter(session: SessionId, i: u64) -> u64 {
    let base = u64::from(session.0) ^ 0xDA7A_B10C;
    base.wrapping_add(i.wrapping_mul(rq::rand::GAMMA))
}

/// Words `first, first + 1, …` of a session's canonical object over
/// `out`.
fn write_object_words(session: SessionId, first: u64, out: &mut [[u8; 8]]) {
    rq::rand::mix64_stream(word_counter(session, first), rq::rand::GAMMA, out);
}

/// Word `i` of a session's canonical object.
fn object_word(session: SessionId, i: u64) -> [u8; 8] {
    rq::rand::mix64(word_counter(session, i)).to_le_bytes()
}

/// Write `session`'s canonical object from byte `at` on over `out`, at
/// any offset, word-aligned or not — the generator behind
/// [`session_object`], a real oracle's source symbols, and the store
/// its encoder re-reads them from.
fn write_session_object_at(session: SessionId, at: usize, out: &mut [u8]) {
    // Up to the word boundary, then whole words, then what is left of
    // the last one — as `session_object_matches_at` checks them.
    let (head, body) = out.split_at_mut(((8 - at % 8) % 8).min(out.len()));
    head.copy_from_slice(&object_word(session, (at / 8) as u64)[at % 8..][..head.len()]);
    let first = ((at + head.len()) / 8) as u64;
    let (words, tail) = body.as_chunks_mut::<8>();
    write_object_words(session, first, words);
    let last = first + words.len() as u64;
    tail.copy_from_slice(&object_word(session, last)[..tail.len()]);
}

/// The canonical (deterministic) object bytes for a session — what a
/// "real" sender would read from storage, generated from the session id
/// alone.
pub fn session_object(session: SessionId, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    write_session_object_at(session, 0, &mut out);
    out
}

/// An encoder over session `id`'s canonical object of `data_len` bytes
/// in symbols of `symbol_size` bytes. It keeps only the object's parity:
/// like a replica's store, the generator hands it the source bytes again
/// whenever a symbol needs them.
fn object_encoder(id: SessionId, data_len: usize, symbol_size: usize) -> Encoder {
    Encoder::from_source(data_len, symbol_size, move |at, out| {
        write_session_object_at(id, at, out)
    })
    .expect("session object is non-empty and fits one block")
}

/// Whether `object` is `session`'s canonical object, regenerated word by
/// word beside the decoded bytes — no second copy of the object, and
/// nothing taken from the sender.
fn is_session_object(session: SessionId, object: Decoded<'_>) -> bool {
    let mut at = 0usize;
    object.runs().all(|run| {
        let matches = session_object_matches_at(session, at, run);
        at += run.len();
        matches
    })
}

/// Words of the object regenerated at a time to check a decoded run
/// against: a stack buffer.
const CHECK_WORDS: usize = 64;

/// Whether `bytes` are the canonical object's bytes from offset `at` on.
fn session_object_matches_at(session: SessionId, at: usize, bytes: &[u8]) -> bool {
    // A run may start inside a word: check up to the word boundary, then
    // whole words, then what is left of the last one.
    let (head, body) = bytes.split_at(((8 - at % 8) % 8).min(bytes.len()));
    let first = ((at + head.len()) / 8) as u64;
    let (words, tail) = body.as_chunks::<8>();
    let mut expect = [[0u8; 8]; CHECK_WORDS];
    head == &object_word(session, (at / 8) as u64)[at % 8..][..head.len()]
        && tail == &object_word(session, first + words.len() as u64)[..tail.len()]
        && (first..)
            .step_by(CHECK_WORDS)
            .zip(words.chunks(CHECK_WORDS))
            .all(|(first, words)| {
                let expect = &mut expect[..words.len()];
                write_object_words(session, first, expect);
                expect == words
            })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn add_without_bytes_equals_add_with_bytes() {
        // The oracle's own encoder and bytes handed in feed one decoder
        // logic: same answers symbol by symbol, duplicates included.
        let session = SessionId(21);
        let len = 40 * 64 - 9;
        let enc = Encoder::new(&session_object(session, len), 64).unwrap();
        let mut by_value = Oracle::real(session, len, 64, CodeMode::Systematic);
        let mut by_esi = Oracle::real(session, len, 64, CodeMode::Systematic);
        let esis = (0..40u32)
            .filter(|e| e % 7 != 2)
            .chain([41, 41, 44, 47, 50, 53, 56, 59, 62]);
        let mut done = false;
        for esi in esis {
            if done {
                break;
            }
            done = by_esi.add(esi, None);
            assert_eq!(done, by_value.add(esi, Some(enc.symbol(esi))), "esi {esi}");
            assert_eq!(by_esi.symbols_received(), by_value.symbols_received());
            assert_eq!(by_esi.symbols_needed(), by_value.symbols_needed());
        }
        assert!(done);
        assert_eq!(by_esi.decode_stats(), by_value.decode_stats());
        assert!(by_esi.decode_stats().solver_decodes >= 1);
        // What had arrived (34 sources and the repairs it took), not the
        // six symbols the decode filled in.
        assert!((40..46).contains(&by_esi.symbols_received()));
        // Only the oracle that was handed no bytes built an encoder.
        assert!(by_esi.encoded());
        assert!(!by_value.encoded());
        // The counting oracle takes the same call and never encodes.
        let mut counting = Oracle::counting(session, 40, 1);
        assert!(!counting.add(0, None));
        assert_eq!(counting.symbols_received(), 1);
        assert!(!counting.encoded());
    }

    #[test]
    fn by_esi_and_by_value_oracles_agree_arrival_by_arrival() {
        // Random K, symbol size, loss, arrival order and duplicates. Both
        // oracles must give the same answers after every arrival. Some
        // cases must see a first decode attempt that fails (rank
        // deficient at K distinct symbols), after which sources keep
        // arriving.
        let mut failed_first_attempts = 0;
        for case in 0..1_500 {
            let mut rng = proptest::TestRng::for_case("oracles_agree", case);
            let mut below = |n: usize| rng.next_below(n as u64) as usize;
            let (k, t) = (1 + below(40), 4 + below(60));
            let len = k * t - below(t);
            let session = SessionId(case);
            let enc = Encoder::new(&session_object(session, len), t).unwrap();
            let k = enc.params().k;
            let loss = below(70);
            let mut esis: Vec<u32> = (0..2 * k as u32 + 8)
                .filter(|_| below(100) >= loss)
                .collect();
            for i in (1..esis.len()).rev() {
                esis.swap(i, below(i + 1));
            }
            for _ in 0..below(k + 1) {
                let at = below(esis.len() + 1);
                if let Some(&again) = esis.get(below(esis.len().max(1))) {
                    esis.insert(at, again);
                }
            }
            let mut by_value = Oracle::real(session, len, t, CodeMode::Systematic);
            let mut by_esi = Oracle::real(session, len, t, CodeMode::Systematic);
            let mut attempted = false;
            for &esi in &esis {
                let done = by_esi.add(esi, None);
                assert_eq!(
                    done,
                    by_value.add(esi, Some(enc.symbol(esi))),
                    "case {case}: esi {esi}"
                );
                assert_eq!(
                    (by_esi.symbols_received(), by_esi.symbols_needed()),
                    (by_value.symbols_received(), by_value.symbols_needed()),
                    "case {case}: esi {esi}"
                );
                assert_eq!(
                    by_esi.decode_stats(),
                    by_value.decode_stats(),
                    "case {case}: esi {esi}"
                );
                if !attempted && by_value.symbols_received() >= k {
                    attempted = true;
                    failed_first_attempts += usize::from(!done);
                }
                if done {
                    break;
                }
            }
        }
        assert!(failed_first_attempts > 0, "no first decode attempt failed");
    }

    #[test]
    fn held_sources_take_no_storage_until_the_decode() {
        // K − 1 symbols without bytes, r of them repairs: only the
        // repairs are written before the decode attempt at the K-th.
        let session = SessionId(9);
        let (len, t, r) = (40 * 64 - 9, 64, 3);
        let mut o = Oracle::real(session, len, t, CodeMode::Systematic);
        assert_eq!(o.storage_bytes(), 0);
        for (i, esi) in (40..40 + r).enumerate() {
            assert!(!o.add(esi, None));
            assert_eq!(o.storage_bytes(), (i + 1) * t, "repair {esi}");
        }
        for esi in 3..39 {
            assert!(!o.add(esi, None), "esi {esi}");
            assert_eq!(o.storage_bytes(), r as usize * t, "source {esi}");
        }
        assert_eq!((o.symbols_received(), o.symbols_needed()), (39, 1));
        assert!(o.add(39, None), "K symbols decode");
        assert_eq!(o.storage_bytes(), 0);
        assert_eq!(o.symbols_received(), 40);
        assert_eq!(o.decode_stats().solver_decodes, 1);
    }

    #[test]
    fn a_session_finishing_on_sources_builds_no_encoder() {
        // Source ESIs are written from the generator (the decode checks
        // them byte for byte against the object); a repair ESI arriving
        // only after the decode is not written at all.
        let session = SessionId(9);
        let len = 40 * 64 - 9;
        let mut o = Oracle::real(session, len, 64, CodeMode::Systematic);
        for esi in 0..39 {
            assert!(!o.add(esi, None), "esi {esi}");
        }
        assert!(o.add(39, None), "all source symbols ⇒ complete");
        assert!(o.add(45, None), "stays complete");
        assert!(!o.encoded());
        assert_eq!(o.decode_stats().fast_path_decodes, 1);
        assert_eq!(o.symbols_received(), 40);
    }

    /// A decoder holding `object` cut into `t`-byte source symbols.
    fn holding(object: &[u8], t: usize) -> Decoder {
        let mut dec = Decoder::new(CodeParams::systematic(object.len(), t).unwrap());
        for (esi, symbol) in object.chunks(t).enumerate() {
            dec.push_with(esi as u32, |slot| {
                slot[..symbol.len()].copy_from_slice(symbol)
            });
        }
        dec
    }

    #[test]
    fn streaming_check_rejects_any_flipped_bit() {
        let session = SessionId(5);
        // 40 symbols of 100 bytes, the last one ragged: three runs of
        // the decoder's storage, seams at bytes 1600 and 3200.
        let len = 40 * 100 - 33;
        let object = session_object(session, len);
        assert!(is_session_object(
            session,
            holding(&object, 100).decode_in_place().unwrap()
        ));
        assert!(!is_session_object(
            SessionId(6),
            holding(&object, 100).decode_in_place().unwrap()
        ));
        for (at, why) in [
            (0, "first word"),
            (7, "first word, last byte"),
            (1599, "before a seam"),
            (1600, "after a seam"),
            (3200, "second seam"),
            (len - 8, "last whole word"),
            (len - 1, "ragged tail"),
        ] {
            for bit in [0, 7] {
                let mut wrong = object.clone();
                wrong[at] ^= 1 << bit;
                assert!(
                    !is_session_object(session, holding(&wrong, 100).decode_in_place().unwrap()),
                    "bit {bit} of byte {at} ({why}) went unnoticed"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn session_object_is_one_stream(
            id in proptest::prelude::any::<u32>(),
            n in 1usize..3000,
            extra in 1usize..3000,
            at in 0usize..3000,
            len in 1usize..200,
        ) {
            use proptest::prelude::*;
            let session = SessionId(id);
            let long = session_object(session, n + extra);
            // A shorter object is a prefix of a longer one...
            prop_assert_eq!(&session_object(session, n)[..], &long[..n]);
            // ...any stretch of it checks from its own offset, word
            // aligned or not...
            let at = at % (n + extra);
            prop_assert!(session_object_matches_at(session, at, &long[at..]));
            prop_assert!(session_object_matches_at(session, at, &long[at..at + 1]));
            if at > 0 {
                prop_assert!(!session_object_matches_at(session, at - 1, &long[at..]));
            }
            // ...and is written from there as it reads from there: any
            // stretch, starting at any byte of a word.
            let len = len.min(n + extra - at);
            let mut stretch = vec![0xEE; len];
            write_session_object_at(session, at, &mut stretch);
            prop_assert_eq!(&stretch[..], &session_object(session, at + len)[at..]);
        }

        #[test]
        fn a_sender_encoder_sends_the_staged_object_symbols(
            id in proptest::prelude::any::<u32>(),
            n in 1usize..3000,
            t in 1usize..200,
        ) {
            use proptest::prelude::*;
            // The encoder a real oracle builds keeps only the parity, as
            // a replica sending from its store would, and re-reads the
            // generator at unaligned offsets (odd `t`) up to a ragged
            // tail (`n % t != 0`); it must write what an encoder over a
            // staged copy of the object sends.
            let session = SessionId(id);
            let sender = object_encoder(session, n, t);
            let staged = Encoder::new(&session_object(session, n), t).unwrap();
            let bp = staged.block_params();
            prop_assert_eq!(sender.params(), staged.params());
            prop_assert_eq!(sender.storage_bytes(), (bp.s + bp.h) * t);
            for esi in (0..bp.k as u32 + 64).chain([1 << 20, u32::MAX]) {
                prop_assert_eq!(sender.symbol(esi), staged.symbol(esi), "esi {}", esi);
            }
        }
    }

    #[test]
    fn stepped_words_equal_the_counter_stream() {
        // Word `i` is `mix64(base + i·γ)` however the stream is entered.
        let session = SessionId(0xBEEF);
        let base = 0xBEEF ^ 0xDA7A_B10C_u64;
        for first in [0u64, 1, 7, 1 << 40, u64::MAX - 2] {
            let mut words = [[0u8; 8]; 5];
            write_object_words(session, first, &mut words);
            for (j, word) in (0u64..).zip(words) {
                let i = first.wrapping_add(j);
                let expect =
                    rq::rand::mix64(base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                assert_eq!(word, expect.to_le_bytes(), "word {i}");
            }
        }
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
