//! Shared foundation types for the ReStore reproduction.
//!
//! This crate holds the data model every other crate builds on:
//!
//! * [`Value`] — a dynamically typed scalar (null / int / double / chararray),
//!   with the total ordering and hashing semantics needed for shuffle keys;
//!   its strings are [`SmallStr`]s, inline up to 22 bytes.
//! * [`Bag`] — the tuples a Group gathers into one field, flat: its
//!   members' fields in one allocation, read as row slices.
//! * [`Tuple`] — a row of values, the unit of data flowing through mappers,
//!   reducers, and physical operators.
//! * [`Schema`] — named, typed field lists attached to datasets and plans.
//! * [`codec`] — the line-oriented record format used for files in the
//!   simulated DFS (tab-separated, escaped), mirroring `PigStorage`; its
//!   one walk over a value also gives `Value::encoded_len` and `Display`.
//! * [`typed`] — the binary value codec for what the system stores for
//!   itself (the shuffle, inter-job temporaries, materialized candidates):
//!   every value keeps its type, and a stored file splits by group.
//! * [`rng`] — deterministic in-tree PRNG (SplitMix64) and Zipf sampler so
//!   data generation is bit-reproducible across platforms and crate versions.
//! * [`Error`] — the shared error type.

pub mod bag;
pub mod bytesize;
pub mod codec;
pub mod error;
mod number;
pub mod rng;
pub mod schema;
pub mod small_str;
pub mod tuple;
pub mod typed;
pub mod value;

pub use bag::Bag;
pub use bytesize::human_bytes;
pub use error::{Error, Result};
pub use schema::{Field, FieldType, Schema};
pub use small_str::SmallStr;
pub use tuple::Tuple;
pub use value::Value;
