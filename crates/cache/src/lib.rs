//! # ia-cache — cache substrate with compression, filtering, partitioning
//!
//! The on-chip storage layer for the `intelligent-arch` system, covering
//! the cache-side mechanisms the paper cites under all three principles:
//!
//! * [`Cache`] — set-associative LRU with pluggable insertion policy
//!   (MRU / LIP / BIP), the substrate everything else builds on. Its
//!   ways are stored struct-of-arrays and set-major, so a hit check
//!   scans one contiguous row of tags.
//! * [`DipCache`] — dynamic insertion via set dueling (data-driven).
//! * [`EafCache`] — Evicted-Address Filter against pollution & thrashing.
//! * [`bdi_compress`] / [`CompressedCache`] — Base-Delta-Immediate
//!   compression (data-aware: "adaptively scale capability to the
//!   compressibility of data").
//! * [`UtilityMonitor`] / [`PartitionedCache`] — utility-based cache
//!   partitioning for multi-programmed fairness.
//!
//! ## Example
//!
//! ```
//! use ia_cache::{bdi_compress, BdiEncoding};
//!
//! # fn main() -> Result<(), ia_cache::CacheError> {
//! // Pointer-like data compresses well under BDI.
//! let mut block = [0u8; 64];
//! for i in 0..8 {
//!     let ptr = 0x7FFF_0000_1000u64 + i * 16;
//!     block[i as usize * 8..][..8].copy_from_slice(&ptr.to_le_bytes());
//! }
//! let c = bdi_compress(&block)?;
//! assert!(c.ratio() > 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compress;
mod dip;
mod eaf;
mod error;
mod partition;
mod set_assoc;

pub use compress::{
    average_bdi_ratio, bdi_compress, fpc_compress, BdiEncoding, Compressed, CompressedCache,
};
pub use dip::{static_policies, DipCache};
pub use eaf::{eaf_cache, EafCache};
pub use error::CacheError;
pub use partition::{partition_by_utility, PartitionedCache, UtilityMonitor};
pub use set_assoc::{Cache, CacheAccess, CacheOp, CacheStats, InsertionPolicy};
