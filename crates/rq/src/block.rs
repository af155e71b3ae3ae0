//! Object layer: transparent partitioning of large objects into source
//! blocks (RFC 6330 §4.4.1).
//!
//! A block is bounded by [`crate::params::MAX_K`] source symbols to keep
//! solver cost bounded; bigger objects are split into `Z` nearly equal
//! blocks using the RFC partition function. Symbols are addressed by
//! `(source block number, ESI)`, like RFC 6330's FEC payload id.

use crate::decoder::{DecodeError, Decoder};
use crate::encoder::{CodeParams, EncodeError, Encoder};
use crate::params::{partition, MAX_K};

/// Identifies one encoding symbol of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PayloadId {
    /// Source block number.
    pub sbn: u8,
    /// Encoding symbol id within the block.
    pub esi: u32,
}

/// Object transmission information: everything the receiving side needs
/// to set up decoders. Sent out-of-band at session establishment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectParams {
    /// Total object length in bytes.
    pub object_len: usize,
    /// Symbol size in bytes (uniform across blocks).
    pub symbol_size: usize,
    /// Per-block code parameters, indexed by SBN.
    pub blocks: Vec<CodeParams>,
}

/// Encoder for an object of arbitrary size.
pub struct ObjectEncoder {
    params: ObjectParams,
    encoders: Vec<Encoder>,
}

impl ObjectEncoder {
    /// Split `data` into blocks and construct per-block encoders.
    pub fn new(data: &[u8], symbol_size: usize) -> Result<Self, EncodeError> {
        if data.is_empty() {
            return Err(EncodeError::EmptyData);
        }
        let total_symbols = data.len().div_ceil(symbol_size);
        let z = total_symbols.div_ceil(MAX_K);
        let (kl, ks, zl, _zs) = partition(total_symbols, z);

        let mut encoders = Vec::with_capacity(z);
        let mut blocks = Vec::with_capacity(z);
        let mut offset = 0usize;
        for b in 0..z {
            let k = if b < zl { kl } else { ks };
            let end = (offset + k * symbol_size).min(data.len());
            let enc = Encoder::new(&data[offset..end], symbol_size)?;
            blocks.push(enc.params());
            encoders.push(enc);
            offset = end;
        }
        debug_assert_eq!(offset, data.len());
        Ok(Self {
            params: ObjectParams {
                object_len: data.len(),
                symbol_size,
                blocks,
            },
            encoders,
        })
    }

    /// The object parameters to hand to receivers.
    pub fn params(&self) -> &ObjectParams {
        &self.params
    }

    /// Number of source blocks.
    pub fn block_count(&self) -> usize {
        self.encoders.len()
    }

    /// Produce the encoding symbol identified by `id`.
    ///
    /// # Panics
    /// Panics if `id.sbn` is out of range (caller owns block addressing).
    pub fn symbol(&self, id: PayloadId) -> Vec<u8> {
        self.encoders[id.sbn as usize].symbol(id.esi)
    }
}

/// Decoder for an object of arbitrary size.
pub struct ObjectDecoder {
    params: ObjectParams,
    decoders: Vec<Decoder>,
}

impl ObjectDecoder {
    /// Set up per-block decoders from the object parameters.
    pub fn new(params: ObjectParams) -> Self {
        let decoders = params.blocks.iter().map(|&b| Decoder::new(b)).collect();
        Self { params, decoders }
    }

    /// Add a received symbol; returns `true` if it was new.
    pub fn push(&mut self, id: PayloadId, symbol: Vec<u8>) -> bool {
        self.decoders[id.sbn as usize].push(id.esi, symbol)
    }

    /// Distinct symbols received across all blocks.
    pub fn symbols_received(&self) -> usize {
        self.decoders.iter().map(|d| d.symbols_received()).sum()
    }

    /// Try to decode the whole object; succeeds only when every block
    /// decodes.
    pub fn try_decode(&self) -> Result<Vec<u8>, DecodeError> {
        let mut out = Vec::with_capacity(self.params.object_len);
        for dec in &self.decoders {
            out.extend_from_slice(&dec.try_decode()?);
        }
        debug_assert_eq!(out.len(), self.params.object_len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn single_block_object() {
        let d = data(10_000);
        let enc = ObjectEncoder::new(&d, 1440).unwrap();
        assert_eq!(enc.block_count(), 1);
        let mut dec = ObjectDecoder::new(enc.params().clone());
        for esi in 0..enc.params().blocks[0].k as u32 {
            dec.push(
                PayloadId { sbn: 0, esi },
                enc.symbol(PayloadId { sbn: 0, esi }),
            );
        }
        assert_eq!(dec.try_decode().unwrap(), d);
    }

    #[test]
    fn multi_block_object() {
        // Force multiple blocks with a tiny symbol size.
        let d = data(MAX_K * 2 + 100);
        let enc = ObjectEncoder::new(&d, 1).unwrap();
        assert!(enc.block_count() >= 2, "expected multiple blocks");
        let mut dec = ObjectDecoder::new(enc.params().clone());
        for (sbn, block) in enc.params().blocks.clone().iter().enumerate() {
            // Lose one source symbol per block, add two repairs.
            let k = block.k as u32;
            for esi in 1..k {
                let id = PayloadId {
                    sbn: sbn as u8,
                    esi,
                };
                dec.push(id, enc.symbol(id));
            }
            for esi in k..k + 3 {
                let id = PayloadId {
                    sbn: sbn as u8,
                    esi,
                };
                dec.push(id, enc.symbol(id));
            }
        }
        assert_eq!(dec.try_decode().unwrap(), d);
    }

    #[test]
    fn paper_scale_object_params() {
        // The paper's 4 MB block with 1440-byte symbols fits one block.
        let enc = ObjectEncoder::new(&vec![0xAB; 4 << 20], 1440).unwrap();
        assert_eq!(enc.block_count(), 1);
        assert_eq!(enc.params().blocks[0].k, (4usize << 20).div_ceil(1440));
    }

    #[test]
    fn partial_block_decode_reports_need_more() {
        let d = data(5000);
        let enc = ObjectEncoder::new(&d, 100).unwrap();
        let dec = ObjectDecoder::new(enc.params().clone());
        assert!(matches!(
            dec.try_decode(),
            Err(DecodeError::NeedMoreSymbols { .. })
        ));
    }
}
