//! Versioned model snapshots: persist a trained estimator and restore it in
//! another process (or hot-swap it between serving replicas).
//!
//! A [`ModelSnapshot`] captures everything [`Cerl`]
//! needs to keep serving and keep learning after a restart:
//!
//! * the full parameter store (all stage networks, every `φ` ever created),
//! * the representation-network and outcome-head wiring (parameter ids),
//! * the covariate standardizer and outcome scaler,
//! * the herded representation memory,
//! * the stage counter, seed, and configuration.
//!
//! One serialized form exists: a little-endian binary container, written
//! by [`ModelSnapshot::to_binary_bytes`] and read by
//! [`ModelSnapshot::from_bytes`], under one version number,
//! [`SNAPSHOT_FORMAT_VERSION`]. Its layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   b"CERLSNAP"
//! version          u32       SNAPSHOT_FORMAT_VERSION (5)
//! payload kind     u8        0 = f64 floats, 1 = f32 floats
//! reserved         3 bytes   zero
//! section count    u32       2
//! section table    tag u32 + byte length u64, twice:
//!                    tag 1 = meta, then tag 2 = float payload
//! section bodies   meta, then payload
//! ```
//!
//! The **meta** section is the snapshot's JSON document with every float
//! array under the `model` and `memory` fields replaced by a
//! `{"$floats": <index>}` placeholder. The **payload** section holds those
//! arrays as raw IEEE-754 values: an array count (`u32`), then per array
//! an element count (`u64`) followed by the elements (8 bytes each for an
//! f64 payload, 4 for f32). With a [`SnapshotPayload::F64`] payload the
//! round-trip is bitwise lossless; [`SnapshotPayload::F32`] narrows model
//! floats for serving replicas that answer in
//! [`PrecisionMode`](crate::precision::PrecisionMode)`::F32` anyway.
//!
//! The reader is strict. Bytes without the magic, non-zero reserved
//! bytes, a section table other than exactly one meta section followed
//! by one payload section, a length that runs past the input, trailing
//! bytes, or a placeholder that does not resolve exactly once are
//! [`SnapshotError::Malformed`](crate::error::SnapshotError); any other
//! version is [`SnapshotError::UnsupportedVersion`](crate::error::SnapshotError),
//! checked before the rest of the container is read. Every length is
//! validated against the remaining input before it is allocated, so
//! truncated or doctored bytes never panic or allocate without bound.

use crate::cfr::CfrModel;
use crate::config::CerlConfig;
use crate::continual::Cerl;
use crate::error::{CerlError, SnapshotError};
use crate::heads::OutcomeHeads;
use crate::memory::Memory;
use crate::precision::{InferencePlan, Predictor};
use crate::repr::ReprNet;
use cerl_data::{OutcomeScaler, Standardizer};
use cerl_nn::{ParamId, ParamStore};
use serde::{Deserialize, Serialize, Value};

/// Version of the snapshot container, the one serialized form (see the
/// [module docs](self) for its layout). Bump on any incompatible change.
/// Numbers 1–4 belonged to earlier formats and must not be reused: this
/// reader refuses their bytes with a typed error.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 5;

/// Leading magic of every snapshot.
const BINARY_MAGIC: [u8; 8] = *b"CERLSNAP";

/// Placeholder key that marks a hoisted float array in the meta document.
const PAYLOAD_KEY: &str = "$floats";

/// Top-level fields of the meta document whose float arrays live in the
/// payload section.
const HOISTED_FIELDS: [&str; 2] = ["model", "memory"];

/// Section tags of the container: meta comes first, payload second.
const SECTION_META: u32 = 1;
const SECTION_PAYLOAD: u32 = 2;

/// Container bytes before the first section body: magic, version,
/// payload kind, reserved bytes, section count, two table entries.
const HEADER_LEN: usize = 8 + 4 + 1 + 3 + 4 + 2 * 12;

/// Float encoding of a snapshot container's payload section.
///
/// `F64` is lossless: the decoded snapshot is bitwise identical to the
/// captured one. `F32` narrows every model/memory float to `f32` — about
/// half the bytes — which is exactly the narrowing a
/// [`PrecisionMode::F32`](crate::precision::PrecisionMode) serving replica
/// applies at plan-compile time anyway, so a replica restored from an
/// `F32`-payload snapshot and opted into f32 mode serves **bitwise
/// identical** predictions to the source engine's f32 mode. Continued
/// *training* from an `F32` payload diverges (the optimizer sees rounded
/// weights); treat it as a serving artifact, not an archival one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotPayload {
    /// Lossless 8-byte floats: bitwise round-trip.
    #[default]
    F64,
    /// Narrowed 4-byte floats: half the payload, f32-serving-exact.
    F32,
}

/// Routing metadata: which serving shards own each domain id.
///
/// A fleet that splits traffic across N independently hot-swappable
/// engines (one per domain cluster or geography — see the `cerl-serve`
/// crate's `ShardRouter`) carries this map in the snapshot so a replica
/// restoring from bytes knows the fleet topology, not just its own
/// weights. Each domain maps to a [`ReplicaSet`] — an ordered set of
/// shard ids all serving identical model bytes — so a hot domain can be
/// read-scaled across several shards while cold domains keep one.
/// Assignments are kept sorted by domain id; lookups are binary searches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Total number of shards in the fleet (shard indices are `0..shards`).
    shards: usize,
    /// Sorted, deduplicated `domain → replica-set` assignments.
    assignments: Vec<ShardAssignment>,
}

/// One `domain → replica-set` routing entry of a [`ShardMap`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardAssignment {
    /// Domain identifier as seen on requests.
    pub domain: u64,
    /// Ordered set of shards that serve this domain.
    pub replicas: ReplicaSet,
}

/// An ordered set of shard ids that all serve one domain.
///
/// The set is canonical — sorted ascending, deduplicated, never empty —
/// so two maps with the same replicas compare equal regardless of the
/// order they were built in, and the **primary** replica (the smallest
/// id, [`ReplicaSet::primary`]) is a deterministic function of the set.
/// Which replica actually answers a given sub-batch is a serving-side
/// policy decision (`cerl-serve`'s `RoutePolicy`), never encoded here:
/// the map says *where a domain's bytes live*, the policy says *which
/// copy answers*.
///
/// Serialized as a plain JSON array of shard ids (`[0, 2, 3]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSet {
    /// Sorted ascending, deduplicated, non-empty (constructor-enforced;
    /// deserialized sets are re-checked by [`ShardMap::validate`]).
    shards: Vec<usize>,
}

impl ReplicaSet {
    /// A canonical set from any list of shard ids: sorted, deduplicated.
    ///
    /// Fails with [`CerlError::InvalidConfig`] when `shards` is empty — a
    /// mapped domain must have at least one serving replica.
    pub fn new(shards: &[usize]) -> Result<Self, CerlError> {
        if shards.is_empty() {
            return Err(invalid_shard_map("replica-set is empty".into()));
        }
        let mut shards = shards.to_vec();
        shards.sort_unstable();
        shards.dedup();
        Ok(Self { shards })
    }

    /// The one-replica set `{shard}` — every pre-replication topology.
    pub fn single(shard: usize) -> Self {
        Self {
            shards: vec![shard],
        }
    }

    /// The primary replica: the smallest shard id in the set. This is
    /// the shard single-replica call paths route to, so a one-replica
    /// set behaves exactly like the old `domain → shard` entry.
    pub fn primary(&self) -> usize {
        self.shards[0] // panic-ok: constructor rejects empty sets
    }

    /// All replicas, sorted ascending.
    pub fn shards(&self) -> &[usize] {
        &self.shards
    }

    /// Number of replicas in the set.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the set holds no replica (only reachable via a doctored
    /// document; constructed sets are never empty).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Whether `shard` is one of this domain's replicas.
    pub fn contains(&self, shard: usize) -> bool {
        self.shards.binary_search(&shard).is_ok()
    }

    /// This set plus `shard`. Fails when `shard` is already a replica.
    pub fn with_added(&self, shard: usize) -> Result<Self, CerlError> {
        if self.contains(shard) {
            return Err(invalid_shard_map(format!(
                "shard {shard} is already in replica-set {self}"
            )));
        }
        let mut shards = self.shards.clone();
        shards.push(shard);
        shards.sort_unstable();
        Ok(Self { shards })
    }

    /// This set minus `shard`. Fails when `shard` is not a replica or is
    /// the last one (a mapped domain must keep a serving replica).
    pub fn with_removed(&self, shard: usize) -> Result<Self, CerlError> {
        if !self.contains(shard) {
            return Err(invalid_shard_map(format!(
                "shard {shard} is not in replica-set {self}"
            )));
        }
        if self.shards.len() == 1 {
            return Err(invalid_shard_map(format!(
                "shard {shard} is the last replica of the set"
            )));
        }
        Ok(Self {
            shards: self
                .shards
                .iter()
                .copied()
                .filter(|&s| s != shard)
                .collect(),
        })
    }

    /// This set with `from` replaced by `to` — a replica *move*. For a
    /// one-replica set this is exactly the old single-shard domain move.
    pub fn with_replaced(&self, from: usize, to: usize) -> Result<Self, CerlError> {
        if from == to {
            return Ok(self.clone());
        }
        self.with_added(to)?.with_removed(from)
    }
}

impl std::fmt::Display for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

impl Serialize for ReplicaSet {
    fn serialize(&self) -> Value {
        Value::Array(self.shards.iter().map(|&s| Value::UInt(s as u64)).collect())
    }
}

impl Deserialize for ReplicaSet {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let items = value
            .as_array()
            .ok_or_else(|| serde::Error::custom("replica-set is not an array"))?;
        let shards = items
            .iter()
            .map(usize::deserialize)
            .collect::<Result<Vec<usize>, serde::Error>>()?;
        // Deliberately *not* canonicalized: a doctored document must
        // surface as a typed validation error, not be silently repaired.
        Ok(Self { shards })
    }
}

impl ShardMap {
    /// Build a map over `shards` shards from `(domain, shard)` pairs —
    /// the single-replica convenience form of [`ShardMap::from_replicas`].
    ///
    /// Fails with [`CerlError::InvalidConfig`] when `shards` is 0, a pair
    /// routes to a shard index `>= shards`, or the same domain is assigned
    /// twice (to *different* shards — exact duplicates are collapsed).
    pub fn from_pairs(shards: usize, pairs: &[(u64, usize)]) -> Result<Self, CerlError> {
        let mut sorted: Vec<(u64, usize)> = pairs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for pair in sorted.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(invalid_shard_map(format!(
                    "domain {} assigned to both shard {} and shard {}",
                    pair[0].0, pair[0].1, pair[1].1
                )));
            }
        }
        let entries: Vec<(u64, Vec<usize>)> =
            sorted.into_iter().map(|(d, s)| (d, vec![s])).collect();
        Self::from_replicas(shards, &entries)
    }

    /// Build a map over `shards` shards from `(domain, replica ids)`
    /// entries. Replica lists are canonicalized ([`ReplicaSet::new`]).
    ///
    /// Fails with [`CerlError::InvalidConfig`] when `shards` is 0, a
    /// replica list is empty, a replica id is `>= shards`, or the same
    /// domain appears twice with *different* replica-sets (entries that
    /// agree exactly are collapsed).
    pub fn from_replicas(shards: usize, entries: &[(u64, Vec<usize>)]) -> Result<Self, CerlError> {
        if shards == 0 {
            return Err(invalid_shard_map("shard count is 0".into()));
        }
        let mut assignments: Vec<ShardAssignment> = entries
            .iter()
            .map(|(domain, replicas)| {
                let replicas = ReplicaSet::new(replicas).map_err(|_| {
                    invalid_shard_map(format!("domain {domain} has an empty replica-set"))
                })?;
                Ok(ShardAssignment {
                    domain: *domain,
                    replicas,
                })
            })
            .collect::<Result<_, CerlError>>()?;
        assignments
            .sort_by(|a, b| (a.domain, a.replicas.shards()).cmp(&(b.domain, b.replicas.shards())));
        assignments.dedup();
        for pair in assignments.windows(2) {
            if pair[0].domain == pair[1].domain {
                return Err(invalid_shard_map(format!(
                    "domain {} assigned to both replica-set {} and replica-set {}",
                    pair[0].domain, pair[0].replicas, pair[1].replicas
                )));
            }
        }
        for a in &assignments {
            for &shard in a.replicas.shards() {
                if shard >= shards {
                    return Err(invalid_shard_map(format!(
                        "domain {} routed to shard {shard} but the map declares {shards} shard(s)",
                        a.domain
                    )));
                }
            }
        }
        Ok(Self {
            shards,
            assignments,
        })
    }

    /// The *primary* shard serving `domain` (smallest replica id), or
    /// `None` when the domain is not mapped. For single-replica maps this
    /// is the one shard that serves the domain, exactly as before
    /// replication; replica-aware callers use [`ShardMap::replicas_for`].
    pub fn shard_for(&self, domain: u64) -> Option<usize> {
        self.replicas_for(domain).map(ReplicaSet::primary)
    }

    /// The full replica-set serving `domain`, or `None` when unmapped.
    pub fn replicas_for(&self, domain: u64) -> Option<&ReplicaSet> {
        self.assignments
            .binary_search_by_key(&domain, |a| a.domain)
            .ok()
            .map(|i| &self.assignments[i].replicas)
    }

    /// Whether any domain is served by more than one replica. Routers
    /// use this to keep the single-replica demux on its historical fast
    /// path: when `false`, no routing policy has a choice to make and
    /// every row resolves through [`ShardMap::shard_for`] exactly as
    /// before replication existed.
    pub fn is_replicated(&self) -> bool {
        self.assignments.iter().any(|a| a.replicas.len() > 1)
    }

    /// Number of shards the map routes across.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Number of mapped domains.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether no domain is mapped.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// All assignments, sorted by domain id.
    pub fn assignments(&self) -> &[ShardAssignment] {
        &self.assignments
    }

    /// A copy of this map with `shard` added to `domain`'s replica-set —
    /// the topology flip that commits a read-scaling `add_replica`.
    ///
    /// The domain must already be mapped, `shard` must be inside the
    /// declared shard range, and must not already serve the domain. The
    /// original map is untouched, so a router can build the successor
    /// topology off to the side and publish it with one atomic pointer
    /// swap.
    pub fn with_replica_added(&self, domain: u64, shard: usize) -> Result<Self, CerlError> {
        self.update_replicas(domain, |set| set.with_added(shard))
    }

    /// A copy of this map with `shard` removed from `domain`'s
    /// replica-set — the topology flip that drains a replica. Fails when
    /// `shard` does not serve the domain or is its last replica.
    pub fn with_replica_removed(&self, domain: u64, shard: usize) -> Result<Self, CerlError> {
        self.update_replicas(domain, |set| set.with_removed(shard))
    }

    /// A copy of this map with `domain`'s replica on shard `from`
    /// replaced by one on shard `to` — the topology flip a shard
    /// rebalance commits. For a single-replica domain this is exactly
    /// the old whole-domain move.
    pub fn with_replica_replaced(
        &self,
        domain: u64,
        from: usize,
        to: usize,
    ) -> Result<Self, CerlError> {
        self.update_replicas(domain, |set| set.with_replaced(from, to))
    }

    /// Rebuild the map with `domain`'s replica-set transformed by `f`,
    /// re-validating the result against the declared shard range.
    fn update_replicas(
        &self,
        domain: u64,
        f: impl FnOnce(&ReplicaSet) -> Result<ReplicaSet, CerlError>,
    ) -> Result<Self, CerlError> {
        let Some(current) = self.replicas_for(domain) else {
            return Err(invalid_shard_map(format!(
                "cannot change replicas of domain {domain}: the map does not route it"
            )));
        };
        let next = f(current).map_err(|e| match e {
            CerlError::InvalidConfig { reason, .. } => {
                invalid_shard_map(format!("domain {domain}: {reason}"))
            }
            other => other,
        })?;
        let entries: Vec<(u64, Vec<usize>)> = self
            .assignments
            .iter()
            .map(|a| {
                if a.domain == domain {
                    (a.domain, next.shards().to_vec())
                } else {
                    (a.domain, a.replicas.shards().to_vec())
                }
            })
            .collect();
        Self::from_replicas(self.shards, &entries)
    }

    /// Structural difference between this topology and `successor`:
    /// which replicas moved shard-to-shard, which were added or removed
    /// within a surviving domain, and which whole domains appeared or
    /// disappeared.
    ///
    /// A fleet restore uses this to explain *how* two replica snapshots
    /// disagree (e.g. a registry captured mid-rebalance), and an
    /// orchestrator can turn the `moved` list into a rebalance plan.
    /// Within one domain, departed and arrived replicas are paired off
    /// in sorted order into [`ShardMove`] entries; an unpaired surplus
    /// lands in [`ShardMapDiff::replicas_added`] /
    /// [`ShardMapDiff::replicas_removed`].
    pub fn diff(&self, successor: &ShardMap) -> ShardMapDiff {
        let mut diff = ShardMapDiff::default();
        for a in &self.assignments {
            match successor.replicas_for(a.domain) {
                Some(new) if new != &a.replicas => {
                    let departed: Vec<usize> = a
                        .replicas
                        .shards()
                        .iter()
                        .copied()
                        .filter(|&s| !new.contains(s))
                        .collect();
                    let arrived: Vec<usize> = new
                        .shards()
                        .iter()
                        .copied()
                        .filter(|&s| !a.replicas.contains(s))
                        .collect();
                    let paired = departed.len().min(arrived.len());
                    for i in 0..paired {
                        diff.moved.push(ShardMove {
                            domain: a.domain,
                            from: departed[i],
                            to: arrived[i],
                        });
                    }
                    for &shard in &departed[paired..] {
                        diff.replicas_removed.push(ReplicaChange {
                            domain: a.domain,
                            shard,
                        });
                    }
                    for &shard in &arrived[paired..] {
                        diff.replicas_added.push(ReplicaChange {
                            domain: a.domain,
                            shard,
                        });
                    }
                }
                Some(_) => {}
                None => diff.removed.push(a.clone()),
            }
        }
        for a in &successor.assignments {
            if self.replicas_for(a.domain).is_none() {
                diff.added.push(a.clone());
            }
        }
        diff
    }

    /// Union of two topologies: every domain either map routes, over
    /// `max(shard_count)` shards.
    ///
    /// Fails when the maps give the same domain different replica-sets —
    /// merging is for composing disjoint fleets (or re-assembling a map
    /// from per-shard fragments), not for resolving conflicts; use
    /// [`ShardMap::diff`] to see a conflict and the
    /// [`ShardMap::with_replica_added`] /
    /// [`ShardMap::with_replica_removed`] /
    /// [`ShardMap::with_replica_replaced`] family to resolve it
    /// deliberately. The conflict error names the domain and *both*
    /// replica-sets.
    pub fn merge(&self, other: &ShardMap) -> Result<Self, CerlError> {
        let entries: Vec<(u64, Vec<usize>)> = self
            .assignments
            .iter()
            .chain(&other.assignments)
            .map(|a| (a.domain, a.replicas.shards().to_vec()))
            .collect();
        Self::from_replicas(self.shards.max(other.shards), &entries)
    }

    /// Re-check the invariants [`ShardMap::from_replicas`] enforces (a
    /// deserialized map bypasses the constructor): no empty replica-set,
    /// no duplicate replica ids, every replica inside the declared shard
    /// range, assignments sorted and deduplicated by domain.
    pub(crate) fn validate(&self) -> Result<(), CerlError> {
        for a in &self.assignments {
            if a.replicas.is_empty() {
                return Err(invalid_shard_map(format!(
                    "domain {} has an empty replica-set",
                    a.domain
                )));
            }
            for pair in a.replicas.shards().windows(2) {
                if pair[0] >= pair[1] {
                    return Err(invalid_shard_map(format!(
                        "domain {} replica-set {} is not sorted/deduplicated",
                        a.domain, a.replicas
                    )));
                }
            }
        }
        let entries: Vec<(u64, Vec<usize>)> = self
            .assignments
            .iter()
            .map(|a| (a.domain, a.replicas.shards().to_vec()))
            .collect();
        let rebuilt = Self::from_replicas(self.shards, &entries)?;
        if rebuilt.assignments != self.assignments {
            return Err(invalid_shard_map(
                "assignments are not sorted/deduplicated by domain".into(),
            ));
        }
        Ok(())
    }
}

fn invalid_shard_map(reason: String) -> CerlError {
    CerlError::InvalidConfig {
        field: "shard_map",
        reason,
    }
}

/// One replica appearing on (or departing) a shard without a paired
/// counterpart — an entry of [`ShardMapDiff::replicas_added`] /
/// [`ShardMapDiff::replicas_removed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaChange {
    /// Domain whose replica-set changed size.
    pub domain: u64,
    /// The shard the replica appeared on (or departed from).
    pub shard: usize,
}

impl std::fmt::Display for ReplicaChange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "domain {} replica on shard {}", self.domain, self.shard)
    }
}

/// One replica's relocation between shards (an entry of
/// [`ShardMapDiff::moved`]). For a single-replica domain this is the
/// whole domain changing shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// Domain whose replica changed shards.
    pub domain: u64,
    /// Shard the replica lived on in the older topology.
    pub from: usize,
    /// Shard it lives on in the newer topology.
    pub to: usize,
}

impl std::fmt::Display for ShardMove {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "domain {} moved shard {} -> {}",
            self.domain, self.from, self.to
        )
    }
}

/// Structural difference between two [`ShardMap`] topologies
/// ([`ShardMap::diff`]). All lists are sorted by domain id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardMapDiff {
    /// Replicas present in both maps' domains but on different shards
    /// (departures and arrivals within one domain, paired off in sorted
    /// order).
    pub moved: Vec<ShardMove>,
    /// Domains only the newer map routes.
    pub added: Vec<ShardAssignment>,
    /// Domains only the older map routes.
    pub removed: Vec<ShardAssignment>,
    /// Replicas the newer map adds to domains both maps route (a
    /// read-scaling `add_replica`).
    pub replicas_added: Vec<ReplicaChange>,
    /// Replicas the newer map drops from domains both maps route (a
    /// `drain_replica`/`remove_replica`).
    pub replicas_removed: Vec<ReplicaChange>,
}

impl ShardMapDiff {
    /// Whether the two topologies route identically (shard *counts* may
    /// still differ; the diff is about domain placement).
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
            && self.replicas_added.is_empty()
            && self.replicas_removed.is_empty()
    }
}

/// Serializable state of the backbone CFR model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CfrState {
    pub(crate) store: ParamStore,
    pub(crate) repr: ReprNet,
    pub(crate) heads: OutcomeHeads,
    pub(crate) x_std: Option<Standardizer>,
    pub(crate) y_scale: Option<OutcomeScaler>,
    pub(crate) d_in: usize,
    pub(crate) stages_trained: usize,
}

/// Complete, versioned state of a continual estimator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// Base seed (stage RNG streams derive from it, so a restored model
    /// continues training exactly as the original would have).
    pub seed: u64,
    /// Completed continual stages.
    pub stage: usize,
    /// Full configuration in effect when the snapshot was taken.
    pub config: CerlConfig,
    /// Fleet routing metadata (`domain → shard`), when the snapshot was
    /// taken from a sharded deployment. `None` for single-engine fleets.
    pub shard_map: Option<ShardMap>,
    /// Which shard of [`ModelSnapshot::shard_map`] this snapshot was
    /// taken from, so a fleet restored from a registry does not depend
    /// on the order replicas are fetched in.
    pub shard_index: Option<usize>,
    pub(crate) model: CfrState,
    pub(crate) memory: Option<Memory>,
}

impl ModelSnapshot {
    /// Capture a snapshot (crate-internal; use
    /// [`Cerl::to_snapshot`](crate::continual::Cerl::to_snapshot) or
    /// [`CerlEngine::snapshot`](crate::engine::CerlEngine::snapshot)).
    pub(crate) fn capture(
        seed: u64,
        stage: usize,
        config: &CerlConfig,
        model: &CfrModel,
        memory: Option<&Memory>,
    ) -> Self {
        Self {
            seed,
            stage,
            config: config.clone(),
            shard_map: None,
            shard_index: None,
            model: model.to_state(),
            memory: memory.cloned(),
        }
    }

    /// Attach fleet routing metadata to this snapshot (builder-style).
    pub fn with_shard_map(mut self, map: ShardMap) -> Self {
        self.shard_map = Some(map);
        self
    }

    /// Record which shard of the attached map this snapshot serves
    /// (builder-style).
    pub fn with_shard_index(mut self, shard: usize) -> Self {
        self.shard_index = Some(shard);
        self
    }

    /// Serialize to the snapshot container (see the [module docs](self)
    /// for the layout).
    ///
    /// Every float array under the snapshot's `model` and `memory` fields
    /// moves into a raw little-endian payload section, encoded per
    /// `payload` ([`SnapshotPayload::F64`] is bitwise lossless;
    /// [`SnapshotPayload::F32`] halves the payload for f32-mode serving
    /// replicas). The structural remainder — configuration, wiring,
    /// shard topology — stays as a small embedded JSON document.
    /// [`ModelSnapshot::from_bytes`] reads the result back.
    pub fn to_binary_bytes(&self, payload: SnapshotPayload) -> Result<Vec<u8>, CerlError> {
        encode_container(Serialize::serialize(self), payload)
    }

    /// Parse the snapshot container written by
    /// [`ModelSnapshot::to_binary_bytes`].
    ///
    /// The version field is checked *before* the rest of the container
    /// is interpreted, so bytes of any other version yield
    /// [`SnapshotError::UnsupportedVersion`]; bytes without the container
    /// magic (a JSON document, say) yield [`SnapshotError::Malformed`].
    /// Parsing checks format concerns only; semantic consistency (network
    /// wiring, parameter shapes, scaler dimensions) is validated once,
    /// when a model is built from the snapshot (`into_cerl` via
    /// [`Cerl::from_snapshot`] or `CerlEngine::load_bytes`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CerlError> {
        Self::deserialize(&decode_container(bytes)?).map_err(|e| malformed(e.to_string()))
    }

    /// Cross-check internal consistency: configuration sanity, network
    /// wiring against the parameter store, and memory dimensions.
    pub(crate) fn validate(&self) -> Result<(), CerlError> {
        self.config.validate()?;
        if let Some(map) = &self.shard_map {
            map.validate()?;
            if let Some(shard) = self.shard_index {
                if shard >= map.shard_count() {
                    return Err(invalid_shard_map(format!(
                        "snapshot claims shard {shard} of a {}-shard map",
                        map.shard_count()
                    )));
                }
            }
        }
        if self.model.d_in == 0 {
            return Err(incompatible("covariate dimension is 0"));
        }
        let store_len = self.model.store.len();
        let check_ids = |ids: &[ParamId], what: &str| -> Result<(), CerlError> {
            for id in ids {
                if id.index() >= store_len {
                    return Err(incompatible(&format!(
                        "{what} references parameter {} but the store holds {store_len}",
                        id.index()
                    )));
                }
            }
            Ok(())
        };
        check_ids(&self.model.repr.params(), "representation network")?;
        check_ids(&self.model.heads.params(), "outcome heads")?;
        if !self.model.repr.has_output_layer() {
            return Err(incompatible("representation network has no output layer"));
        }
        if self.stage > 0 && (self.model.x_std.is_none() || self.model.y_scale.is_none()) {
            return Err(incompatible("trained snapshot is missing its scalers"));
        }
        if let Some(x_std) = &self.model.x_std {
            if x_std.dim() != self.model.d_in {
                return Err(incompatible(&format!(
                    "standardizer dimension {} does not match covariate dimension {}",
                    x_std.dim(),
                    self.model.d_in
                )));
            }
        }
        if let Some(memory) = &self.memory {
            // Memory derives Deserialize field-by-field, bypassing
            // `Memory::try_new`; re-check its invariants here so a
            // doctored document cannot smuggle in out-of-sync arrays that
            // later index out of bounds inside `try_observe`.
            if memory.y.len() != memory.len() || memory.t.len() != memory.len() {
                return Err(incompatible(&format!(
                    "memory arrays out of sync: {} representations, {} outcomes, {} treatments",
                    memory.len(),
                    memory.y.len(),
                    memory.t.len()
                )));
            }
            if memory.dim() != self.config.net.repr_dim {
                return Err(incompatible(&format!(
                    "memory representation dimension {} does not match net.repr_dim {}",
                    memory.dim(),
                    self.config.net.repr_dim
                )));
            }
            // A non-finite exemplar would reach the next stage's tape and
            // training would blame a weight for it; refuse it here, by row.
            if let Some(row) =
                (0..memory.len()).find(|&i| !memory.r.row(i).iter().all(|v| v.is_finite()))
            {
                return Err(CerlError::NonFiniteInput {
                    field: "memory.r",
                    row,
                });
            }
            if let Some(row) = memory.y.iter().position(|v| !v.is_finite()) {
                return Err(CerlError::NonFiniteInput {
                    field: "memory.y",
                    row,
                });
            }
        }
        Ok(())
    }

    /// Rebuild the estimator this snapshot captured, with its compiled
    /// `f64` inference plan (`None` before the first stage).
    pub(crate) fn into_cerl(self) -> Result<(Cerl, Option<InferencePlan<f64>>), CerlError> {
        self.validate()?;
        let ModelSnapshot {
            seed,
            stage,
            config,
            model,
            memory,
            ..
        } = self;
        let d_in = model.d_in;
        let model = CfrModel::from_state(model, config.clone(), seed);
        let cerl = Cerl::restore(config, model, memory, stage, seed);
        if cerl.stage() == 0 {
            return Ok((cerl, None));
        }
        // Structural id checks cannot see parameter *shapes*; a hostile or
        // corrupted document can wire layers whose matrices do not chain.
        // Compile the plan and smoke-predict one zero row under
        // catch_unwind, converting any shape panic into a typed error, so
        // untrusted bytes cannot crash a serving process on its first
        // real request.
        let probe = cerl_math::Matrix::zeros(1, d_in);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let plan = InferencePlan::<f64>::compile(cerl.cfr())?;
            plan.predict_ite(&probe)?;
            Ok::<_, CerlError>(plan)
        }));
        match outcome {
            Ok(Ok(plan)) => Ok((cerl, Some(plan))),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(incompatible(
                "snapshot parameters are internally inconsistent (smoke prediction failed)",
            )),
        }
    }
}

fn incompatible(reason: &str) -> CerlError {
    CerlError::Snapshot(SnapshotError::Incompatible(reason.to_string()))
}

fn malformed(reason: impl Into<String>) -> CerlError {
    CerlError::Snapshot(SnapshotError::Malformed(reason.into()))
}

/// Write `doc` as a container: hoist the float arrays under its `model`
/// and `memory` fields into the payload section, encoded per `payload`.
fn encode_container(mut doc: Value, payload: SnapshotPayload) -> Result<Vec<u8>, CerlError> {
    let mut arrays: Vec<Vec<f64>> = Vec::new();
    if let Value::Object(fields) = &mut doc {
        for (key, value) in fields.iter_mut() {
            if HOISTED_FIELDS.contains(&key.as_str()) {
                hoist_float_arrays(value, &mut arrays);
            }
        }
    }
    let meta = serde_json::to_vec(&doc).map_err(|e| malformed(e.to_string()))?;

    let array_count = u32::try_from(arrays.len())
        .map_err(|_| malformed("too many float arrays for the payload section"))?;
    let mut payload_body = Vec::new();
    payload_body.extend_from_slice(&array_count.to_le_bytes());
    for arr in &arrays {
        payload_body.extend_from_slice(&(arr.len() as u64).to_le_bytes());
        match payload {
            SnapshotPayload::F64 => {
                for &v in arr {
                    payload_body.extend_from_slice(&v.to_le_bytes());
                }
            }
            SnapshotPayload::F32 => {
                for &v in arr {
                    payload_body.extend_from_slice(&(v as f32).to_le_bytes());
                }
            }
        }
    }

    let mut out = Vec::with_capacity(HEADER_LEN + meta.len() + payload_body.len());
    out.extend_from_slice(&BINARY_MAGIC);
    out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    out.push(match payload {
        SnapshotPayload::F64 => 0,
        SnapshotPayload::F32 => 1,
    });
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&2u32.to_le_bytes());
    for (tag, body) in [(SECTION_META, &meta), (SECTION_PAYLOAD, &payload_body)] {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    }
    out.extend_from_slice(&meta);
    out.extend_from_slice(&payload_body);
    Ok(out)
}

/// Read a container back into the snapshot's JSON document, floats
/// restored. Every read is bounds-checked; any deviation from the
/// documented layout is [`SnapshotError::Malformed`].
fn decode_container(bytes: &[u8]) -> Result<Value, CerlError> {
    let mut r = ByteReader::new(bytes);
    if r.take(BINARY_MAGIC.len()).ok() != Some(&BINARY_MAGIC[..]) {
        return Err(malformed("not a snapshot container (no CERLSNAP magic)"));
    }
    let version = r.u32()?;
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(CerlError::Snapshot(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_FORMAT_VERSION,
        }));
    }
    let payload = match r.u8()? {
        0 => SnapshotPayload::F64,
        1 => SnapshotPayload::F32,
        other => return Err(malformed(format!("unknown payload kind {other}"))),
    };
    if r.take(3)? != [0u8; 3] {
        return Err(malformed("reserved header bytes are not zero"));
    }
    let section_count = r.u32()?;
    if section_count != 2 {
        return Err(malformed(format!(
            "section table has {section_count} entries, expected meta then payload"
        )));
    }
    let mut section = |tag: u32| {
        let found = r.u32()?;
        if found != tag {
            return Err(malformed(format!(
                "section tag {found} where tag {tag} belongs"
            )));
        }
        usize::try_from(r.u64()?).map_err(|_| malformed("section length overflows usize"))
    };
    let meta_len = section(SECTION_META)?;
    let payload_len = section(SECTION_PAYLOAD)?;
    let meta = r.take(meta_len)?;
    let payload_body = r.take(payload_len)?;
    if r.remaining() != 0 {
        return Err(malformed(format!(
            "{} trailing bytes after the last section",
            r.remaining()
        )));
    }

    let mut arrays = decode_payload_arrays(payload_body, payload)?;
    let text = std::str::from_utf8(meta)
        .map_err(|e| malformed(format!("meta section is not UTF-8: {e}")))?;
    let mut value = serde_json::parse(text).map_err(|e| malformed(e.to_string()))?;
    // One snapshot, one encoding: every array the writer hoists must come
    // back as a placeholder.
    if let Value::Object(fields) = &value {
        let inline = |(key, v): &(String, Value)| {
            HOISTED_FIELDS.contains(&key.as_str()) && holds_inline_float_array(v)
        };
        if fields.iter().any(inline) {
            return Err(malformed(
                "float array left inline in the meta document, not in the payload",
            ));
        }
    }
    restore_float_arrays(&mut value, &mut arrays)?;
    if arrays.iter().any(Option::is_some) {
        return Err(malformed(
            "payload contains arrays the meta document never references",
        ));
    }
    Ok(value)
}

/// Bounds-checked cursor over untrusted snapshot bytes: every read
/// validates against the remaining input, so a truncated or doctored
/// container fails with a typed error instead of panicking.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CerlError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| {
                malformed(format!(
                    "truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.remaining()
                ))
            })?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| malformed(format!("truncated at offset {}", self.pos)))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CerlError> {
        Ok(self.take(1)?[0]) // panic-ok: take(1) returned exactly one byte
    }

    fn u32(&mut self) -> Result<u32, CerlError> {
        let raw = self.take(4)?;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(raw);
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self) -> Result<u64, CerlError> {
        let raw = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(raw);
        Ok(u64::from_le_bytes(buf))
    }
}

/// Move every all-float array in `v` into `arrays`, leaving a
/// `{"$floats": index}` placeholder behind. Recurses through objects and
/// mixed arrays; empty arrays stay inline (nothing to hoist).
fn hoist_float_arrays(v: &mut Value, arrays: &mut Vec<Vec<f64>>) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            let floats: Option<Vec<f64>> = items
                .iter()
                .map(|item| match item {
                    Value::Float(f) => Some(*f),
                    _ => None,
                })
                .collect();
            match floats {
                Some(data) => {
                    let idx = arrays.len() as u64;
                    arrays.push(data);
                    *v = Value::Object(vec![(PAYLOAD_KEY.to_string(), Value::UInt(idx))]);
                }
                None => {
                    for item in items {
                        hoist_float_arrays(item, arrays);
                    }
                }
            }
        }
        Value::Object(fields) => {
            for (_, value) in fields {
                hoist_float_arrays(value, arrays);
            }
        }
        _ => {}
    }
}

/// Whether `v` holds an array [`hoist_float_arrays`] would have moved to
/// the payload: non-empty, every item a float.
fn holds_inline_float_array(v: &Value) -> bool {
    match v {
        Value::Array(items) if !items.is_empty() => {
            items.iter().all(|item| matches!(item, Value::Float(_)))
                || items.iter().any(holds_inline_float_array)
        }
        Value::Object(fields) => fields.iter().any(|(_, v)| holds_inline_float_array(v)),
        _ => false,
    }
}

/// Decode the payload section into float arrays. Element counts are
/// validated against the remaining section length *before* any allocation,
/// so a doctored count cannot trigger an unbounded `Vec` reservation.
fn decode_payload_arrays(
    body: &[u8],
    payload: SnapshotPayload,
) -> Result<Vec<Option<Vec<f64>>>, CerlError> {
    let width = match payload {
        SnapshotPayload::F64 => 8,
        SnapshotPayload::F32 => 4,
    };
    let mut r = ByteReader::new(body);
    let count = r.u32()? as usize;
    // Each array costs at least its 8-byte length prefix.
    if count > r.remaining() / 8 {
        return Err(malformed(format!("payload claims {count} arrays")));
    }
    let mut arrays = Vec::with_capacity(count);
    for _ in 0..count {
        let n = usize::try_from(r.u64()?).map_err(|_| malformed("array length overflows usize"))?;
        let nbytes = n
            .checked_mul(width)
            .ok_or_else(|| malformed("array byte length overflows usize"))?;
        let raw = r.take(nbytes)?;
        let mut data = Vec::with_capacity(n);
        match payload {
            SnapshotPayload::F64 => {
                for chunk in raw.chunks_exact(8) {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(chunk);
                    data.push(f64::from_le_bytes(buf));
                }
            }
            SnapshotPayload::F32 => {
                for chunk in raw.chunks_exact(4) {
                    let mut buf = [0u8; 4];
                    buf.copy_from_slice(chunk);
                    data.push(f64::from(f32::from_le_bytes(buf)));
                }
            }
        }
        arrays.push(Some(data));
    }
    if r.remaining() != 0 {
        return Err(malformed(format!(
            "{} trailing bytes in the payload section",
            r.remaining()
        )));
    }
    Ok(arrays)
}

/// Replace every `{"$floats": index}` placeholder in `v` with its payload
/// array, consuming each array slot so a doctored meta document cannot
/// reference the same array twice (or dangle past the payload table).
fn restore_float_arrays(v: &mut Value, arrays: &mut [Option<Vec<f64>>]) -> Result<(), CerlError> {
    match v {
        Value::Object(fields) => {
            let placeholder = match fields.as_slice() {
                [(key, Value::UInt(idx))] if key == PAYLOAD_KEY => Some(*idx),
                _ => None,
            };
            if let Some(idx) = placeholder {
                let idx = usize::try_from(idx)
                    .map_err(|_| malformed("float placeholder index overflows usize"))?;
                let data = arrays.get_mut(idx).and_then(Option::take).ok_or_else(|| {
                    malformed(format!(
                        "float placeholder {idx} is out of range or referenced twice"
                    ))
                })?;
                *v = Value::Array(data.into_iter().map(Value::Float).collect());
            } else {
                for (_, value) in fields {
                    restore_float_arrays(value, arrays)?;
                }
            }
        }
        Value::Array(items) => {
            for item in items {
                restore_float_arrays(item, arrays)?;
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerl_data::{DomainStream, SyntheticConfig, SyntheticGenerator};

    fn trained_cerl(stages: usize) -> (Cerl, DomainStream) {
        let gen = SyntheticGenerator::new(
            SyntheticConfig {
                n_units: 400,
                ..SyntheticConfig::small()
            },
            11,
        );
        let stream = DomainStream::synthetic(&gen, stages.max(2), 0, 17);
        let mut cfg = CerlConfig::quick_test();
        cfg.train.epochs = 6;
        cfg.memory_size = 80;
        let mut cerl = Cerl::try_new(stream.domain(0).train.dim(), cfg, 23).unwrap();
        for d in 0..stages {
            cerl.try_observe(&stream.domain(d).train, &stream.domain(d).val)
                .unwrap();
        }
        (cerl, stream)
    }

    /// The lossless (F64-payload) container of `snapshot`.
    fn container(snapshot: &ModelSnapshot) -> Vec<u8> {
        snapshot.to_binary_bytes(SnapshotPayload::F64).unwrap()
    }

    /// Re-wrap a container after `edit` doctored its document (floats
    /// restored, so an edit may touch any field): how these tests reach
    /// the decoder with documents the typed API cannot build.
    fn doctor(bytes: &[u8], edit: impl FnOnce(&mut Value)) -> Vec<u8> {
        let mut doc = decode_container(bytes).unwrap();
        edit(&mut doc);
        encode_container(doc, SnapshotPayload::F64).unwrap()
    }

    /// A version-5, f64-payload container with a hand-written section
    /// table: one `(tag, body)` entry per section, bodies in table order.
    fn assemble(sections: &[(u32, &[u8])]) -> Vec<u8> {
        let mut out = BINARY_MAGIC.to_vec();
        out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // payload kind f64, reserved
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for (tag, body) in sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        }
        for (_, body) in sections {
            out.extend_from_slice(body);
        }
        out
    }

    fn is_malformed(bytes: &[u8]) -> bool {
        matches!(
            ModelSnapshot::from_bytes(bytes),
            Err(CerlError::Snapshot(SnapshotError::Malformed(_)))
        )
    }

    #[test]
    fn snapshot_roundtrips_bitwise_identical_predictions() {
        let (cerl, stream) = trained_cerl(2);
        let bytes = container(&cerl.to_snapshot());
        let restored = Cerl::from_snapshot(ModelSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        for d in 0..2 {
            let x = &stream.domain(d).test.x;
            let a = cerl.try_predict_ite(x).unwrap();
            let b = restored.try_predict_ite(x).unwrap();
            assert_eq!(a.len(), b.len());
            for (va, vb) in a.iter().zip(&b) {
                assert_eq!(va.to_bits(), vb.to_bits(), "domain {d}");
            }
        }
        assert_eq!(restored.stage(), cerl.stage());
        assert_eq!(
            restored.memory().map(Memory::len),
            cerl.memory().map(Memory::len)
        );
    }

    #[test]
    fn restored_model_continues_observing() {
        let (cerl, stream) = trained_cerl(1);
        let bytes = container(&cerl.to_snapshot());

        // "Fresh process": rebuild purely from bytes, then continue.
        let mut restored = Cerl::from_snapshot(ModelSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        let report = restored
            .try_observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        assert_eq!(report.stage, 2);

        // The continuation matches what the original process would produce.
        let mut original = cerl;
        original
            .try_observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        let x = &stream.domain(1).test.x;
        assert_eq!(
            original.try_predict_ite(x).unwrap(),
            restored.try_predict_ite(x).unwrap()
        );
    }

    #[test]
    fn shard_map_routes_and_validates() {
        let map = ShardMap::from_pairs(3, &[(10, 0), (11, 1), (12, 2), (11, 1)]).unwrap();
        assert_eq!(map.shard_count(), 3);
        assert_eq!(map.len(), 3); // exact duplicate collapsed
        assert_eq!(map.shard_for(11), Some(1));
        assert_eq!(map.shard_for(99), None);

        assert!(ShardMap::from_pairs(0, &[]).is_err());
        assert!(ShardMap::from_pairs(2, &[(1, 2)]).is_err());
        assert!(ShardMap::from_pairs(2, &[(1, 0), (1, 1)]).is_err());
    }

    #[test]
    fn replica_sets_route_and_mutate() {
        let map = ShardMap::from_replicas(4, &[(0, vec![2, 0]), (1, vec![3])]).unwrap();
        // Canonical order: sorted ascending, primary = smallest id.
        assert_eq!(map.replicas_for(0).unwrap().shards(), &[0, 2]);
        assert_eq!(map.shard_for(0), Some(0));
        assert_eq!(map.replicas_for(1).unwrap().shards(), &[3]);
        assert_eq!(map.replicas_for(9), None);
        assert!(map.replicas_for(0).unwrap().contains(2));
        assert!(!map.replicas_for(0).unwrap().contains(1));

        let grown = map.with_replica_added(1, 1).unwrap();
        assert_eq!(grown.replicas_for(1).unwrap().shards(), &[1, 3]);
        assert_eq!(map.replicas_for(1).unwrap().len(), 1, "original untouched");
        assert!(map.with_replica_added(1, 3).is_err(), "already a replica");
        assert!(map.with_replica_added(1, 9).is_err(), "out of range");
        assert!(map.with_replica_added(7, 0).is_err(), "unmapped domain");

        let shrunk = grown.with_replica_removed(1, 3).unwrap();
        assert_eq!(shrunk.replicas_for(1).unwrap().shards(), &[1]);
        assert!(map.with_replica_removed(1, 3).is_err(), "last replica");
        assert!(map.with_replica_removed(0, 1).is_err(), "not a replica");

        // Exact-duplicate entries collapse; conflicting sets are refused
        // with both sets named.
        let dup = ShardMap::from_replicas(4, &[(0, vec![1, 2]), (0, vec![2, 1])]).unwrap();
        assert_eq!(dup.len(), 1);
        let err = ShardMap::from_replicas(4, &[(0, vec![1]), (0, vec![1, 2])]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("[1]") && msg.contains("[1, 2]"), "{msg}");
        // An empty replica list never builds.
        assert!(ShardMap::from_replicas(4, &[(0, vec![])]).is_err());
    }

    #[test]
    fn replica_diff_pairs_moves_and_reports_surplus() {
        let old = ShardMap::from_replicas(5, &[(0, vec![0, 1]), (1, vec![2])]).unwrap();
        // Domain 0: replica 1 -> 3 (paired move) plus a brand-new replica
        // on 4 (surplus arrival). Domain 1: untouched.
        let new = ShardMap::from_replicas(5, &[(0, vec![0, 3, 4]), (1, vec![2])]).unwrap();
        let diff = old.diff(&new);
        assert_eq!(
            diff.moved,
            vec![ShardMove {
                domain: 0,
                from: 1,
                to: 3
            }]
        );
        assert_eq!(
            diff.replicas_added,
            vec![ReplicaChange {
                domain: 0,
                shard: 4
            }]
        );
        assert!(diff.replicas_removed.is_empty());
        assert!(diff.added.is_empty() && diff.removed.is_empty());
        assert!(!diff.is_empty());
        // The reverse direction sees the surplus as a removal.
        let back = new.diff(&old);
        assert_eq!(back.moved.len(), 1);
        assert_eq!(
            back.replicas_removed,
            vec![ReplicaChange {
                domain: 0,
                shard: 4
            }]
        );
        assert_eq!(
            back.replicas_removed[0].to_string(),
            "domain 0 replica on shard 4"
        );
        // A pure add_replica diff has no moves at all.
        let scaled = old.with_replica_added(1, 4).unwrap();
        let diff = old.diff(&scaled);
        assert!(diff.moved.is_empty());
        assert_eq!(diff.replicas_added.len(), 1);
    }

    #[test]
    fn hostile_replica_metadata_is_rejected_not_a_panic() {
        let (cerl, _) = trained_cerl(1);
        let reject = |map: ShardMap, what: &str| {
            let mut snapshot = cerl.to_snapshot();
            snapshot.shard_map = Some(map);
            let parsed = ModelSnapshot::from_bytes(&container(&snapshot)).unwrap();
            match Cerl::from_snapshot(parsed) {
                Err(CerlError::InvalidConfig { field, .. }) => {
                    assert_eq!(field, "shard_map", "{what}")
                }
                other => panic!(
                    "{what}: expected InvalidConfig, got {:?}",
                    other.map(|_| ())
                ),
            }
        };
        // Duplicate replica ids inside one set.
        reject(
            ShardMap {
                shards: 2,
                assignments: vec![ShardAssignment {
                    domain: 0,
                    replicas: ReplicaSet { shards: vec![1, 1] },
                }],
            },
            "duplicate replica ids",
        );
        // Empty replica-set.
        reject(
            ShardMap {
                shards: 2,
                assignments: vec![ShardAssignment {
                    domain: 0,
                    replicas: ReplicaSet { shards: vec![] },
                }],
            },
            "empty replica-set",
        );
        // Replica id past the declared fleet size.
        reject(
            ShardMap {
                shards: 2,
                assignments: vec![ShardAssignment {
                    domain: 0,
                    replicas: ReplicaSet {
                        shards: vec![0, 17],
                    },
                }],
            },
            "replica id >= fleet size",
        );
    }

    #[test]
    fn shard_map_move_diff_and_merge() {
        let map = ShardMap::from_pairs(3, &[(0, 0), (1, 0), (2, 1)]).unwrap();

        let moved = map.with_replica_replaced(1, 0, 2).unwrap();
        assert_eq!(moved.shard_for(1), Some(2));
        assert_eq!(moved.shard_for(0), Some(0));
        assert_eq!(map.shard_for(1), Some(0), "original map is untouched");
        assert!(
            map.with_replica_replaced(99, 0, 1).is_err(),
            "unmapped domain"
        );
        assert!(
            map.with_replica_replaced(1, 0, 7).is_err(),
            "shard out of range"
        );
        assert!(
            map.with_replica_replaced(1, 2, 1).is_err(),
            "source shard does not hold the domain"
        );

        let diff = map.diff(&moved);
        assert_eq!(
            diff.moved,
            vec![ShardMove {
                domain: 1,
                from: 0,
                to: 2
            }]
        );
        assert!(diff.added.is_empty() && diff.removed.is_empty());
        assert!(map.diff(&map).is_empty());
        assert_eq!(diff.moved[0].to_string(), "domain 1 moved shard 0 -> 2");

        // Added/removed domains show up on the right side of the diff.
        let grown = map
            .merge(&ShardMap::from_pairs(3, &[(7, 2)]).unwrap())
            .unwrap();
        assert_eq!(map.diff(&grown).added.len(), 1);
        assert_eq!(grown.diff(&map).removed.len(), 1);
        assert_eq!(grown.len(), 4);
        assert_eq!(grown.shard_for(7), Some(2));

        // Merging conflicting placements is refused; identical overlap is
        // fine (re-assembling a topology from per-shard fragments).
        let conflicting = ShardMap::from_pairs(3, &[(1, 2)]).unwrap();
        assert!(map.merge(&conflicting).is_err());
        assert_eq!(map.merge(&map).unwrap(), map);

        // A rebalanced topology round-trips through the container.
        let (cerl, _) = trained_cerl(1);
        let bytes = container(&cerl.to_snapshot().with_shard_map(moved.clone()));
        let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(restored.shard_map, Some(moved));
    }

    #[test]
    fn shard_map_diff_spans_fleets_of_different_sizes() {
        // A rebalance planner diffs the live topology against a target
        // that may declare brand-new shards; the diff must describe the
        // change faithfully across shard-count boundaries.
        let current = ShardMap::from_pairs(2, &[(0, 0), (1, 0), (2, 1)]).unwrap();
        let grown = ShardMap::from_pairs(4, &[(0, 0), (1, 3), (2, 1)]).unwrap();
        let diff = current.diff(&grown);
        assert_eq!(
            diff.moved,
            vec![ShardMove {
                domain: 1,
                from: 0,
                to: 3
            }]
        );
        assert!(diff.added.is_empty() && diff.removed.is_empty());
        // Same placements over more declared shards: an empty diff even
        // though the shard counts differ (the diff is about placement).
        let widened = ShardMap::from_pairs(4, &[(0, 0), (1, 0), (2, 1)]).unwrap();
        assert!(current.diff(&widened).is_empty());
        assert_ne!(current, widened);
        // The reverse direction sees the move coming back.
        assert_eq!(
            grown.diff(&current).moved,
            vec![ShardMove {
                domain: 1,
                from: 3,
                to: 0
            }]
        );
    }

    #[test]
    fn shard_map_merge_conflicts_name_the_domain_and_both_replica_sets() {
        let a = ShardMap::from_pairs(3, &[(0, 0), (1, 0), (2, 1)]).unwrap();
        let b = ShardMap::from_pairs(3, &[(1, 2), (5, 2)]).unwrap();
        let err = a.merge(&b).unwrap_err();
        assert!(
            matches!(err, CerlError::InvalidConfig { field, .. } if field == "shard_map"),
            "conflict must stay a typed shard_map error"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("domain 1") && msg.contains("[0]") && msg.contains("[2]"),
            "conflict must name the domain and both replica-sets: {msg}"
        );
        // Multi-replica conflicts render the full sets on both sides.
        let wide_a = ShardMap::from_replicas(4, &[(1, vec![0, 2])]).unwrap();
        let wide_b = ShardMap::from_replicas(4, &[(1, vec![0, 3])]).unwrap();
        let msg = wide_a.merge(&wide_b).unwrap_err().to_string();
        assert!(
            msg.contains("domain 1") && msg.contains("[0, 2]") && msg.contains("[0, 3]"),
            "conflict must name both full replica-sets: {msg}"
        );
        // Merge order does not change the verdict.
        assert!(b.merge(&a).is_err());
        // Disjoint merge over differing shard counts takes the wider
        // fleet and keeps every placement.
        let wide = ShardMap::from_pairs(5, &[(9, 4)]).unwrap();
        let merged = a.merge(&wide).unwrap();
        assert_eq!(merged.shard_count(), 5);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.shard_for(9), Some(4));
        assert_eq!(merged.shard_for(1), Some(0));
    }

    #[test]
    fn shard_map_roundtrips_in_snapshot_and_is_validated_on_load() {
        let (cerl, _) = trained_cerl(1);
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)]).unwrap();
        let bytes = container(&cerl.to_snapshot().with_shard_map(map.clone()));
        let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(restored.shard_map.as_ref(), Some(&map));
        // The restored map still builds a working estimator.
        assert!(Cerl::from_snapshot(restored).is_ok());

        // A doctored map (shard index out of range) is rejected when the
        // model is built, even though the document parses.
        let mut snapshot = cerl.to_snapshot();
        snapshot.shard_map = Some(ShardMap {
            shards: 1,
            assignments: vec![ShardAssignment {
                domain: 0,
                replicas: ReplicaSet { shards: vec![5] },
            }],
        });
        let parsed = ModelSnapshot::from_bytes(&container(&snapshot)).unwrap();
        match Cerl::from_snapshot(parsed) {
            Err(CerlError::InvalidConfig { field, .. }) => assert_eq!(field, "shard_map"),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn wrong_format_version_is_a_typed_error() {
        let (cerl, _) = trained_cerl(1);
        let mut bytes = container(&cerl.to_snapshot());
        bytes[8..12].copy_from_slice(&(SNAPSHOT_FORMAT_VERSION + 1).to_le_bytes());
        match ModelSnapshot::from_bytes(&bytes) {
            Err(CerlError::Snapshot(SnapshotError::UnsupportedVersion { found, supported })) => {
                assert_eq!(found, SNAPSHOT_FORMAT_VERSION + 1);
                assert_eq!(supported, SNAPSHOT_FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn binary_snapshot_roundtrips_bitwise_and_reencodes_identically() {
        let (cerl, stream) = trained_cerl(2);
        let snapshot = cerl.to_snapshot();
        // The same document as plain JSON text, floats inline.
        let json = serde_json::to_vec(&snapshot).unwrap();
        let bin = snapshot.to_binary_bytes(SnapshotPayload::F64).unwrap();
        assert!(
            bin.len() < json.len(),
            "container {} must beat the document's JSON text {}",
            bin.len(),
            json.len()
        );

        let parsed = ModelSnapshot::from_bytes(&bin).unwrap();
        // Lossless payload: decode → re-encode is byte-identical.
        let reencoded = parsed.to_binary_bytes(SnapshotPayload::F64).unwrap();
        assert!(
            reencoded == bin,
            "f64 binary re-encode must be byte-identical"
        );

        let restored = Cerl::from_snapshot(parsed).unwrap();
        for d in 0..2 {
            let x = &stream.domain(d).test.x;
            assert_eq!(
                cerl.try_predict_ite(x).unwrap(),
                restored.try_predict_ite(x).unwrap(),
                "domain {d}"
            );
        }
        assert_eq!(restored.stage(), cerl.stage());
        assert_eq!(
            restored.memory().map(Memory::len),
            cerl.memory().map(Memory::len)
        );
    }

    #[test]
    fn f32_payload_is_at_most_a_quarter_of_json_and_loads() {
        let (cerl, stream) = trained_cerl(2);
        let snapshot = cerl.to_snapshot();
        let json = serde_json::to_vec(&snapshot).unwrap();
        let bin = snapshot.to_binary_bytes(SnapshotPayload::F32).unwrap();
        assert!(
            bin.len() * 4 <= json.len(),
            "f32 container {} must be at most 1/4 of the document's JSON text {}",
            bin.len(),
            json.len()
        );
        // Widening a narrowed float then narrowing again is the identity,
        // so an f32-payload snapshot re-encodes byte-identically too.
        let parsed = ModelSnapshot::from_bytes(&bin).unwrap();
        let reencoded = parsed.to_binary_bytes(SnapshotPayload::F32).unwrap();
        assert!(
            reencoded == bin,
            "f32 binary re-encode must be byte-identical"
        );
        // The narrowed model still restores and predicts (close to, but
        // not equal to, the f64 original).
        let restored = Cerl::from_snapshot(parsed).unwrap();
        let x = &stream.domain(0).test.x;
        let a = cerl.try_predict_ite(x).unwrap();
        let b = restored.try_predict_ite(x).unwrap();
        let scale = a.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (va, vb) in a.iter().zip(&b) {
            assert!((va - vb).abs() <= 1e-3 * scale, "{va} vs {vb}");
        }
    }

    #[test]
    fn binary_snapshot_carries_shard_topology() {
        let (cerl, _) = trained_cerl(1);
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)]).unwrap();
        let bin = cerl
            .to_snapshot()
            .with_shard_map(map.clone())
            .with_shard_index(1)
            .to_binary_bytes(SnapshotPayload::F64)
            .unwrap();
        let restored = ModelSnapshot::from_bytes(&bin).unwrap();
        assert_eq!(restored.shard_map, Some(map));
        assert_eq!(restored.shard_index, Some(1));
    }

    #[test]
    fn truncated_or_doctored_binary_is_malformed_not_a_panic() {
        let (cerl, _) = trained_cerl(1);
        let bin = cerl
            .to_snapshot()
            .to_binary_bytes(SnapshotPayload::F64)
            .unwrap();

        // Cut at every header boundary and a spread of body offsets. All
        // cuts keep the magic, so each exercises the binary decoder.
        let cuts = [8, 12, 13, 16, 20, 28, 40, bin.len() / 3, bin.len() - 1];
        for &cut in &cuts {
            match ModelSnapshot::from_bytes(&bin[..cut]) {
                Err(CerlError::Snapshot(SnapshotError::Malformed(_))) => {}
                other => panic!("cut {cut}: expected Malformed, got {:?}", other.map(|_| ())),
            }
        }
        // Trailing bytes after the last section.
        let mut extended = bin.clone();
        extended.extend_from_slice(&[0u8; 5]);
        assert!(is_malformed(&extended), "trailing bytes must be rejected");

        // Unknown payload kind.
        let mut kind = bin.clone();
        kind[12] = 9;
        assert!(is_malformed(&kind), "unknown payload kind must be rejected");

        // A section length far past the end of the input must fail fast
        // (bounds are checked before any allocation).
        let mut huge = bin.clone();
        huge[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(
            is_malformed(&huge),
            "oversized section length must be rejected"
        );

        // An inflated section *count* must be rejected before the table
        // allocation, too.
        let mut many = bin.clone();
        many[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            is_malformed(&many),
            "oversized section count must be rejected"
        );

        // Reserved header bytes must be zero.
        for at in 13..16 {
            let mut reserved = bin.clone();
            reserved[at] = 1;
            assert!(is_malformed(&reserved), "reserved byte {at} must be zero");
        }
    }

    #[test]
    fn section_table_is_exactly_meta_then_payload() {
        let (cerl, _) = trained_cerl(1);
        let bin = container(&cerl.to_snapshot());
        let meta_len =
            usize::try_from(u64::from_le_bytes(bin[24..32].try_into().unwrap())).unwrap();
        let (meta, payload) = bin[HEADER_LEN..].split_at(meta_len);
        let (m, p) = (SECTION_META, SECTION_PAYLOAD);
        assert_eq!(
            assemble(&[(m, meta), (p, payload)]),
            bin,
            "layout assumption"
        );

        // A doubled meta section must not let the last one win.
        assert!(
            is_malformed(&assemble(&[(m, meta), (m, meta), (p, payload)])),
            "a doubled meta section must be rejected"
        );
        for (what, table) in [
            (
                "doubled payload",
                vec![(m, meta), (p, payload), (p, payload)],
            ),
            ("swapped sections", vec![(p, payload), (m, meta)]),
            (
                "unknown trailing section",
                vec![(m, meta), (p, payload), (7, &b"x"[..])],
            ),
            (
                "unknown leading section",
                vec![(7, &b"x"[..]), (m, meta), (p, payload)],
            ),
            ("missing payload", vec![(m, meta)]),
            ("missing meta", vec![(p, payload)]),
            ("no sections", vec![]),
        ] {
            assert!(is_malformed(&assemble(&table)), "{what} must be rejected");
        }
    }

    #[test]
    fn json_snapshot_documents_are_malformed_not_upgraded() {
        // The document as plain JSON text (what format versions 1, 2 and
        // 4 were) is not a container.
        let (cerl, _) = trained_cerl(1);
        let json = serde_json::to_vec(&cerl.to_snapshot()).unwrap();
        assert!(is_malformed(&json), "a JSON document must be Malformed");
    }

    #[test]
    fn unknown_binary_version_is_a_typed_error() {
        // Version 3 is the earlier container; 9 is from the future.
        let (cerl, _) = trained_cerl(1);
        let mut bin = container(&cerl.to_snapshot());
        for version in [3u32, 9] {
            bin[8..12].copy_from_slice(&version.to_le_bytes());
            match ModelSnapshot::from_bytes(&bin) {
                Err(CerlError::Snapshot(SnapshotError::UnsupportedVersion {
                    found,
                    supported,
                })) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, 5);
                }
                other => panic!("expected UnsupportedVersion, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn garbage_bytes_are_malformed_not_panics() {
        for bytes in [&b"not json"[..], &[0xFF, 0xFE][..], b"{}", b"[1,2,3]"] {
            match ModelSnapshot::from_bytes(bytes) {
                Err(CerlError::Snapshot(SnapshotError::Malformed(_))) => {}
                other => panic!("expected Malformed for {bytes:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_output_layer_is_rejected() {
        let (cerl, _) = trained_cerl(1);
        // Null out both output layers in the document itself (the typed
        // ModelSnapshot cannot express this; a hostile document can).
        fn null_field(v: &mut serde::Value, name: &str) {
            if let serde::Value::Object(fields) = v {
                for (k, val) in fields.iter_mut() {
                    if k == name {
                        *val = serde::Value::Null;
                    } else {
                        null_field(val, name);
                    }
                }
            }
        }
        let doctored = doctor(&container(&cerl.to_snapshot()), |value| {
            null_field(value, "out_cosine");
            null_field(value, "out_plain");
        });
        let parsed = ModelSnapshot::from_bytes(&doctored).expect("format is valid");
        match Cerl::from_snapshot(parsed) {
            Err(CerlError::Snapshot(SnapshotError::Incompatible(reason))) => {
                assert!(reason.contains("output layer"), "{reason}");
            }
            Err(other) => panic!("expected Incompatible, got {other:?}"),
            Ok(_) => panic!("doctored snapshot must not load"),
        }
    }

    #[test]
    fn doctored_parameter_shapes_fail_closed_not_panic() {
        let (cerl, _) = trained_cerl(1);
        // Shrink every parameter matrix to 1x1 — ids stay valid, shapes no
        // longer chain. Loading must return a typed error, not panic.
        fn shrink_matrices(v: &mut serde::Value) {
            if let serde::Value::Object(fields) = v {
                let is_matrix = fields.iter().any(|(k, _)| k == "rows")
                    && fields.iter().any(|(k, _)| k == "cols")
                    && fields.iter().any(|(k, _)| k == "data");
                if is_matrix {
                    for (k, val) in fields.iter_mut() {
                        match k.as_str() {
                            "rows" | "cols" => *val = serde::Value::UInt(1),
                            "data" => *val = serde::Value::Array(vec![serde::Value::Float(0.5)]),
                            _ => {}
                        }
                    }
                    return;
                }
                for (_, val) in fields.iter_mut() {
                    shrink_matrices(val);
                }
            } else if let serde::Value::Array(items) = v {
                for item in items.iter_mut() {
                    shrink_matrices(item);
                }
            }
        }
        let doctored = doctor(&container(&cerl.to_snapshot()), shrink_matrices);
        let parsed = ModelSnapshot::from_bytes(&doctored).expect("format is valid");
        match Cerl::from_snapshot(parsed) {
            Err(CerlError::Snapshot(SnapshotError::Incompatible(_))) => {}
            Err(other) => panic!("expected Incompatible, got {other:?}"),
            Ok(_) => panic!("doctored shapes must not load"),
        }
    }

    #[test]
    fn out_of_sync_memory_arrays_are_rejected() {
        let (cerl, _) = trained_cerl(2);
        let mut snapshot = cerl.to_snapshot();
        // Doctor the memory arrays out of sync at the document level (the
        // typed constructor would reject this, serde does not).
        let repr_dim = snapshot.config.net.repr_dim;
        snapshot.memory = Some(Memory {
            r: cerl_math::Matrix::zeros(4, repr_dim),
            y: vec![0.0; 2],
            t: vec![true; 4],
        });
        let parsed = ModelSnapshot::from_bytes(&container(&snapshot)).unwrap();
        match Cerl::from_snapshot(parsed) {
            Err(CerlError::Snapshot(SnapshotError::Incompatible(reason))) => {
                assert!(reason.contains("out of sync"), "{reason}");
            }
            Err(other) => panic!("expected Incompatible, got {other:?}"),
            Ok(_) => panic!("out-of-sync memory must not load"),
        }
    }

    #[test]
    fn inconsistent_wiring_is_rejected() {
        let (cerl, _) = trained_cerl(1);
        let mut snapshot = cerl.to_snapshot();
        // Claim a memory in a different representation space.
        snapshot.memory = Some(
            Memory::try_new(
                cerl_math::Matrix::zeros(4, snapshot.config.net.repr_dim + 3),
                vec![0.0; 4],
                vec![true, false, true, false],
            )
            .unwrap(),
        );
        let parsed = ModelSnapshot::from_bytes(&container(&snapshot)).expect("format is valid");
        match Cerl::from_snapshot(parsed) {
            Err(CerlError::Snapshot(SnapshotError::Incompatible(_))) => {}
            Err(other) => panic!("expected Incompatible, got {other:?}"),
            Ok(_) => panic!("inconsistent memory must not load"),
        }
    }
}
