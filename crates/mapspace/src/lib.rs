//! Mapping-space exploration for MAERI: an auto-tuner over VN
//! partitions, replication and loop order on one fabric.
//!
//! MAERI's reconfigurable distribution tree and ART make the *mapping*
//! a free variable — a layer can run under many different virtual-
//! neuron partitions, each with a different bandwidth/iteration
//! trade-off. This crate turns that freedom into a search problem:
//!
//! 1. **Enumerate** the knobs ([`CandidateKind`](maeri::CandidateKind))
//!    of every candidate of a [`SearchSpec`]'s layer (channel tile,
//!    replication cap, loop order, VN-size fold target — per layer
//!    kind); every candidate runs on the spec's fabric, whose bandwidth
//!    pair [`SearchResult`] records and prints,
//! 2. **Prune** candidates the mapper refuses to plan and shape
//!    duplicates. A dense candidate is planned once, by its mapper's own
//!    recipe on the search's one fabric, fault plan and healthy spans
//!    (the mappers' `*_with` plans over a `maeri::mapper::ArtSource`),
//!    and the static verifier
//!    (`maeri-verify`) checks that plan with `reject_plan`, the ledger
//!    its `statically_reject` runs. A dense CONV candidate's
//!    fingerprint is read off its plan's shape (no ART) before the gate,
//!    so the gate and scoring run once per shape and later candidates of
//!    that shape replay its verdict into the counters. Each channel tile
//!    is shaped once (`maeri::ConvMapper::tile_shape`, whose VN count is
//!    the most that `maeri::art::packed_count` places), and a
//!    replication cap is arithmetic on that
//!    (`maeri::mapper::conv::TileShape::with_cap`); every cap at or above
//!    the VNs that pack gives the tile one shape per loop order, so the
//!    loop counts those candidates as duplicates without shaping them.
//!    The fingerprint names the channel tile, and the enumeration lists
//!    a tile's candidates together, so the verdicts kept are the current
//!    tile's. A plan's ART comes from a memo that lives for one search,
//!    keyed by the (VN size, VN count) the mapper asks for, which fixes
//!    the packed ranges: each packing's ART is built once, on one reused
//!    construction walk (`maeri::mapper::FabricArts`), and shared by the
//!    plans that ask for it (the memo keeps a bounded number of ARTs,
//!    and past 64 leaves builds a forgotten packing again). A sparse
//!    candidate's VN sizes are counted once, checked by `reject_plan`
//!    and costed,
//! 3. **Score** the survivors with the mappers' closed-form cost models
//!    on the plan the gate checked (`maeri::ConvMapper::cycles`, the
//!    cycles of `ConvMapper::cost`; `FcMapper::cost`, `LstmMapper::cost`;
//!    `SparseConvMapper::cost` on the VN sizes the gate checked),
//! 4. keep the 8 analytically best as the **frontier** (always joined
//!    by the legacy heuristic mapper's named point, so tuning can never
//!    lose to it), and
//! 5. **Validate** the frontier with the exact clocked trace
//!    (`maeri::cycle_sim::simulate_conv_plan`) where one exists (dense
//!    CONV), on the shape each member was scored by and the memo's ART,
//!    without planning it again, picking the winner by validated cycles.
//!
//! The whole pipeline is deterministic: enumeration is ordered, the
//! frontier sort is stable, and [`SearchResult::canonical_text`] is
//! byte-stable across runs and worker counts. `maeri-runtime` wraps
//! [`search`] in its `SimJob::MapSearch` variant so whole-network
//! tuning fans out across the worker pool with content-hash caching
//! and panic isolation for free.
//!
//! ```
//! use maeri::MaeriConfig;
//! use maeri_dnn::ConvLayer;
//! use maeri_mapspace::{search, SearchLayer, SearchSpec};
//!
//! let layer = ConvLayer::new("c", 16, 14, 14, 8, 3, 3, 1, 1);
//! let spec = SearchSpec::new(
//!     SearchLayer::Conv(layer),
//!     MaeriConfig::paper_64(),
//! );
//! let result = search(&spec)?;
//! assert!(result.best_cycles() <= result.heuristic_cycles());
//! # Ok::<(), maeri_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod search;
mod space;

pub use search::{search, CandidateOutcome, SearchCounters, SearchResult};
pub use space::{enumerate, space_size, SearchLayer, SearchSpec};
