//! Token interning: `Sym` ↔ token text.
//!
//! Every tokenizer in this crate resolves token text to a compact
//! [`Sym`] through an [`Interner`], so a token's heap string is stored
//! exactly once per corpus no matter how many bags, blocking keys,
//! inverted-index buckets, or shards mention it. Downstream set
//! operations ([`crate::tokenize::TokenBag`]) then compare 4-byte
//! symbols instead of hashing strings.
//!
//! ## Determinism
//!
//! Symbols are assigned densely in first-intern order, so a fixed
//! sequence of `intern` calls always yields the same numbering — the
//! property the streaming subsystem's parallel ingest relies on (workers
//! tokenize against a frozen interner snapshot and a single writer
//! commits fresh tokens in ingest order; see `zeroer_stream`).
//!
//! ## Stable hashing
//!
//! The interner also memoizes the 64-bit FNV-1a hash of every token's
//! *text* ([`Interner::text_hash`]). Shard routing in the streaming
//! subsystem must be identical across processes and interner histories,
//! so it hashes token text — never symbol ids — and this cache makes
//! that free at lookup time.

use crate::cow::{PartMap, Sharing};
use std::sync::Arc;

/// An interned token: a dense index into an [`Interner`].
///
/// Symbols are only meaningful relative to the interner that produced
/// them; comparing symbols from different interners is a logic error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// The dense index of this symbol in its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Flag bit marking a *scratch-local* symbol produced by
/// [`crate::derive::ScratchDeriver`]; such symbols must be remapped into
/// the global interner before use (see `DerivedRecord::commit`).
pub(crate) const LOCAL_BIT: u32 = 1 << 31;

/// The 64-bit FNV-1a offset basis: the hash of no bytes, where every
/// [`fnv1a_extend`] chain starts.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running 64-bit FNV-1a hash `h`. Chaining
/// calls hashes the concatenation of their inputs, so a consumer can
/// digest a sequence of fields (snapshot record digests) without
/// building one buffer.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable 64-bit FNV-1a hash of a token's text. Deliberately *not*
/// `DefaultHasher`: consumers (shard routing, snapshot digests) need a
/// hash that is identical across processes, platforms, and std versions.
#[inline]
pub fn fnv1a(s: &str) -> u64 {
    fnv1a_extend(FNV1A_BASIS, s.as_bytes())
}

/// Symbols per text chunk. A power of two, so a symbol splits into its
/// chunk and slot with a shift and a mask.
const CHUNK_BITS: u32 = 9;
const CHUNK: usize = 1 << CHUNK_BITS;
/// Parts of the text-hash map (see [`crate::cow::PartMap`]).
const MAP_PARTS: usize = 256;

/// One fixed-size run of symbols: each one's text and FNV-1a hash. Full
/// chunks are never written again, so clones share them for good; each
/// text is its own `Arc<str>`, so copying a shared tail chunk bumps
/// reference counts instead of copying texts.
#[derive(Debug, Clone, Default)]
struct Chunk {
    texts: Vec<Arc<str>>,
    hashes: Vec<u64>,
}

/// The symbols whose texts share one 64-bit hash: almost always exactly
/// one, so the common case allocates nothing.
#[derive(Debug, Clone)]
struct Chain {
    first: u32,
    rest: Vec<u32>,
}

impl Chain {
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }
}

/// Append-only token table: text → [`Sym`] with first-seen-order symbol
/// assignment, plus the memoized FNV-1a text hash per symbol.
///
/// ## Copy-on-write
///
/// Texts and hashes live in fixed-size `Arc` chunks and the text-hash
/// map in a [`PartMap`], so `clone` copies pointers only. Interning a
/// fresh token writes the last chunk and one map part, each copied
/// first only if a clone still shares it. A streaming writer can thus
/// hand an immutable interner to every reader after each write at a
/// cost bounded by the write, and no clone ever sees a later intern.
#[derive(Debug, Clone)]
pub struct Interner {
    chunks: Vec<Arc<Chunk>>,
    /// text-hash → the symbols with that hash (collision chain).
    map: PartMap<u64, Chain>,
    len: usize,
    bytes: usize,
}

impl Default for Interner {
    fn default() -> Self {
        Self {
            chunks: Vec::new(),
            map: PartMap::new(MAP_PARTS),
            len: 0,
            bytes: 0,
        }
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn chunk(&self, i: u32) -> &Chunk {
        &self.chunks[(i >> CHUNK_BITS) as usize]
    }

    #[inline]
    fn text(&self, i: u32) -> &str {
        &self.chunk(i).texts[i as usize & (CHUNK - 1)]
    }

    fn find(&self, h: u64, s: &str) -> Option<Sym> {
        let chain = self.map.get(&h)?;
        chain.ids().find(|&i| self.text(i) == s).map(Sym)
    }

    /// Interns `s`, returning its symbol (existing or freshly assigned).
    ///
    /// # Panics
    /// Panics if more than 2³¹ distinct tokens are interned.
    pub fn intern(&mut self, s: &str) -> Sym {
        let h = fnv1a(s);
        if let Some(sym) = self.find(h, s) {
            return sym;
        }
        let id = self.len as u32;
        assert!(id < LOCAL_BIT, "interner overflow: 2^31 distinct tokens");
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::default());
        }
        let chunk = Arc::make_mut(self.chunks.last_mut().expect("pushed above"));
        chunk.texts.push(s.into());
        chunk.hashes.push(h);
        self.len += 1;
        self.bytes += s.len();
        if let Some(chain) = self.map.get_mut(&h) {
            chain.rest.push(id);
        } else {
            self.map.get_or_insert_with(h, || Chain {
                first: id,
                rest: Vec::new(),
            });
        }
        Sym(id)
    }

    /// Looks up an already-interned token without inserting.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.find(fnv1a(s), s)
    }

    /// The text of a symbol.
    ///
    /// # Panics
    /// Panics on a symbol this interner did not produce (including
    /// uncommitted scratch-local symbols).
    pub fn resolve(&self, sym: Sym) -> &str {
        self.text(sym.0)
    }

    /// The memoized FNV-1a hash of the symbol's text
    /// (`== fnv1a(self.resolve(sym))`).
    pub fn text_hash(&self, sym: Sym) -> u64 {
        self.chunk(sym.0).hashes[sym.index() & (CHUNK - 1)]
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bytes of distinct token text stored (each token once).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// How much of this interner's storage (text chunks and map parts)
    /// `other` shares physically — all of it right after a clone, all
    /// but what later interns touched afterwards.
    pub fn sharing(&self, other: &Interner) -> Sharing {
        let mut out = Sharing::of(&self.chunks, &other.chunks);
        out.absorb(self.map.sharing(&other.map));
        out
    }
}

/// Anything tokens can be interned into: the global [`Interner`] or a
/// worker-local scratch table ([`crate::derive::ScratchDeriver`]).
pub trait InternSink {
    /// Interns one token.
    fn intern_token(&mut self, s: &str) -> Sym;
}

impl InternSink for Interner {
    #[inline]
    fn intern_token(&mut self, s: &str) -> Sym {
        self.intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut it = Interner::new();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        assert_eq!(it.intern("alpha"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(it.len(), 2);
        assert_eq!(it.bytes(), "alpha".len() + "beta".len());
    }

    #[test]
    fn resolve_round_trips() {
        let mut it = Interner::new();
        let s = it.intern("token");
        assert_eq!(it.resolve(s), "token");
        assert_eq!(it.get("token"), Some(s));
        assert_eq!(it.get("missing"), None);
    }

    #[test]
    fn text_hash_matches_fnv1a() {
        let mut it = Interner::new();
        let s = it.intern("photograph");
        assert_eq!(it.text_hash(s), fnv1a("photograph"));
    }

    #[test]
    fn fnv1a_pinned_values() {
        // Shard routing depends on these exact values never changing.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn symbols_assigned_in_first_seen_order() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        for t in ["x", "y", "x", "z"] {
            a.intern(t);
        }
        for t in ["x", "y", "z"] {
            b.intern(t);
        }
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.resolve(Sym(i as u32)), b.resolve(Sym(i as u32)));
        }
    }

    fn token(i: usize) -> String {
        format!("tok{i}")
    }

    #[test]
    fn intern_clone_is_isolated_across_chunks_and_parts() {
        // Start mid-chunk so the writes after the clone run into the
        // shared tail chunk, then across several fresh chunks and every
        // map part.
        let before = CHUNK + CHUNK / 2;
        let after = 3 * CHUNK;
        let mut it = Interner::new();
        let mut fresh = Interner::new();
        for i in 0..before {
            it.intern(&token(i));
            fresh.intern(&token(i));
        }
        let frozen = it.clone();
        assert_eq!(it.sharing(&frozen).unshared(), 0, "a clone copies nothing");
        for i in (0..before + after)
            .rev()
            .step_by(3)
            .chain(0..before + after)
        {
            assert_eq!(it.intern(&token(i)), fresh.intern(&token(i)), "token {i}");
        }
        assert_eq!(it.len(), fresh.len());
        assert_eq!(it.bytes(), fresh.bytes());
        for i in 0..fresh.len() {
            let s = Sym(i as u32);
            assert_eq!(it.resolve(s), fresh.resolve(s));
            assert_eq!(it.text_hash(s), fresh.text_hash(s));
            assert_eq!(it.get(fresh.resolve(s)), Some(s));
        }
        // The clone still answers exactly as at clone time.
        assert_eq!(frozen.len(), before);
        for i in 0..before {
            let s = Sym(i as u32);
            assert_eq!(frozen.resolve(s), token(i));
            assert_eq!(frozen.text_hash(s), fnv1a(&token(i)));
            assert_eq!(frozen.get(&token(i)), Some(s));
        }
        for i in before..before + after {
            assert_eq!(frozen.get(&token(i)), None, "token {i} is not in the clone");
        }
        // Full chunks stay shared: only the tail the clone had is copied.
        assert_eq!(Sharing::of(&it.chunks, &frozen.chunks).shared, 1);
    }
}
