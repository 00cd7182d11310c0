//! A read-only TCP server over a [`LinkPipeline`]'s pinned read state —
//! the wire counterpart of [`zeroer_stream::LinkReadHandle`], running
//! the same accept and connection loops as the dedup [`crate::Server`].
//!
//! Its resolve verb is **side-aware**:
//! `{"op":"resolve","side":"left"|"right","values":[…]}` probes the
//! *opposite* side's index and scores cross candidates with the frozen
//! cross model, exactly like [`LinkPipeline::ingest`] minus the
//! insertion — responses are bit-identical (`f64::to_bits`) to calling
//! [`zeroer_stream::LinkReadHandle::resolve`] in-process.
//!
//! The view is pinned once at [`LinkServer::bind`] and never republished
//! (there is no linkage write path over the wire). Supported ops:
//! `resolve` (side required), `admin ping`, `admin shutdown`. Everything
//! else answers `{"ok":false,…}`.

use crate::server::{Backend, Listener};
use std::net::SocketAddr;
use zeroer_stream::{LinkPipeline, LinkReadHandle};

/// A bound-but-not-yet-serving linkage resolution server.
pub struct LinkServer {
    front: Listener,
    handle: LinkReadHandle,
}

impl LinkServer {
    /// Pins `pipeline`'s current read state and binds `addr` (e.g.
    /// `127.0.0.1:0` for an ephemeral port). The pipeline itself is
    /// only borrowed — the pinned view is an immutable clone, so the
    /// caller keeps ingesting on its side while the server answers
    /// from the pinned epoch.
    ///
    /// # Errors
    /// Fails when the address cannot be bound.
    pub fn bind(pipeline: &LinkPipeline, addr: &str) -> std::io::Result<LinkServer> {
        Ok(LinkServer {
            front: Listener::bind(addr, pipeline.options().metrics)?,
            handle: pipeline.pin_read_handle(),
        })
    }

    /// The bound address (the real port when bound with port 0).
    ///
    /// # Panics
    /// Panics if the OS cannot report the local address of a freshly
    /// bound listener (which indicates a broken socket layer).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Serves until an admin `shutdown` request arrives, then drains:
    /// open connections are shut down and handler threads joined.
    pub fn run(self) {
        self.front.run(|| Backend::Link(self.handle.clone()));
    }
}
