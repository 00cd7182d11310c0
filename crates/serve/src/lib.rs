//! `zeroer serve` — a TCP resolution service over the stream
//! pipeline's read/write split.
//!
//! The server loads a frozen [`zeroer_stream::PipelineSnapshot`]-backed
//! [`zeroer_stream::StreamPipeline`], splits it into its read and write
//! halves ([`zeroer_stream::SplitPipeline`]), and speaks a
//! length-prefixed JSON protocol ([`protocol`]) with three verbs:
//!
//! * **resolve** — answered on the read path ([`zeroer_stream::ReadHandle`]):
//!   epoch-pinned, lock-free against the writer, bit-identical (to
//!   `f64::to_bits`) to in-process resolution;
//! * **ingest** — admitted to the write path ([`zeroer_stream::WriteHandle`]):
//!   micro-batched into the single-writer protocol, preserving
//!   admission-order determinism;
//! * **admin** — `ping` / `stats` (byte-identical with the CLI
//!   `--stats` renderer) / `compact` / `refresh` (re-fit + snapshot
//!   swap on the writer) / `snapshot` / `shutdown`.
//!
//! Linkage pipelines are served read-only by [`LinkServer`], whose
//! resolve verb is **side-aware** (`"side":"left"|"right"`) and backed
//! by [`zeroer_stream::LinkReadHandle`]. Both servers run one accept
//! loop and one connection loop; a connection's backend — a dedup
//! read/write handle pair, or a linkage read handle — decides which
//! verbs it answers.
//!
//! Everything is `std` + workspace crates: sockets are `std::net`, JSON
//! is the workspace's own reader/writer pair. See the crate README for
//! the wire format and the `serve.*` metric catalog.

#![warn(missing_docs)]

pub mod client;
pub mod link_server;
pub mod protocol;
pub mod server;

pub use client::{Client, WireIngest, WireResolution};
pub use link_server::LinkServer;
pub use server::Server;
