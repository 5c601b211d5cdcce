// Copyright 2026 The LTAM Authors.
// The location & movements database (Figure 3).
//
// "The location & movements database stores the location layout, as well
// as users' movements. These data are then used for authorization
// validation, system status checking, etc." The layout lives in
// MultilevelLocationGraph; this class stores the movement side: the
// current location of every subject plus an append-only movement history
// supporting temporal queries (where was s at t, who was in l at t,
// co-location/contact queries).
//
// Tiering: the row-form indexes above are the *hot* tier. Once a durable
// runtime decides a shard's hot tier has grown past its budget, it calls
// SealCompletedStays() — every completed stay moves into an immutable
// columnar ColdSegment (engine/cold_segment.h) and the hot tier shrinks
// back to the open stays plus one synthetic opening event each, chosen so
// that replaying the remaining history() reconstructs the hot tier
// exactly (the per-shard snapshot stays a plain event stream). Queries
// transparently merge both tiers, so sealing never changes an answer;
// only history() (the raw hot log, what snapshots persist) and its
// replay consumers see the smaller hot tier.

#ifndef LTAM_ENGINE_MOVEMENT_DB_H_
#define LTAM_ENGINE_MOVEMENT_DB_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/events.h"
#include "time/interval.h"
#include "util/result.h"

namespace ltam {

struct ColdSegment;

/// An interval a subject spent inside one location.
struct Stay {
  SubjectId subject = kInvalidSubject;
  LocationId location = kInvalidLocation;
  Chronon enter_time = 0;
  /// kChrononMax while the stay is still open.
  Chronon exit_time = kChrononMax;
};

/// Movement-history tiering and retention knobs (durable sharded
/// runtimes; see RuntimeOptions::retention).
struct RetentionOptions {
  /// Drop sealed segments whose every stay ended more than this many
  /// chronons before the newest recorded time. 0 = keep everything.
  /// Queries beyond the horizon answer as if those subjects were outside
  /// — only data inside the retained window is equivalence-guaranteed.
  Chronon horizon = 0;
  /// Seal a shard's completed stays into a cold segment when its hot
  /// event count exceeds this at a checkpoint. 0 = tiering disabled
  /// (the unbounded pre-tiering behavior).
  size_t max_hot_events = 0;
  /// Merge runs of `compaction_fanin` consecutive cold segments (oldest
  /// first) whose newest stays end in the same horizon-wide time window
  /// — one window when horizon is 0 — bounding per-query segment count
  /// at O(fanin) per live window. Merging never spans windows, so a
  /// merged segment still ages past the horizon and drops. Minimum
  /// effective value is 2.
  uint32_t compaction_fanin = 8;
};

/// Indexed store of user movements.
class MovementDatabase {
 public:
  MovementDatabase() = default;

  /// Records that `s` moved to `to` at `time` (kInvalidLocation = left the
  /// site). Events must arrive in nondecreasing time order per subject;
  /// out-of-order events are rejected (sealed history counts: an event
  /// older than a subject's last sealed stay is rejected exactly as the
  /// unbounded database would).
  Status RecordMovement(Chronon time, SubjectId s, LocationId to);

  /// Current location of `s`; kInvalidLocation when outside/unknown.
  LocationId CurrentLocation(SubjectId s) const;

  /// Time `s` entered their current location; NotFound when outside.
  Result<Chronon> CurrentStaySince(SubjectId s) const;

  /// Where `s` was at time `t`; kInvalidLocation when outside.
  LocationId LocationAt(SubjectId s, Chronon t) const;

  /// Subjects inside `l` at time `t`.
  std::vector<SubjectId> OccupantsAt(LocationId l, Chronon t) const;

  /// Subjects currently inside `l`.
  std::vector<SubjectId> CurrentOccupants(LocationId l) const;

  /// Every completed and open stay of `s`, in time order (cold tiers
  /// first — sealed stays always precede a subject's hot stays).
  std::vector<Stay> StaysOf(SubjectId s) const;

  /// Every stay in `l`. Without a cold tier: hot arrival order (the
  /// historical contract). With one: normalized to (enter_time, subject,
  /// exit_time, location) — cross-subject arrival interleaving does not
  /// survive sealing, the same normalization the sharded view applies.
  std::vector<Stay> StaysIn(LocationId l) const;

  /// Borrowed view of the per-location HOT stay index (an empty vector
  /// when `l` has no hot stays) — the allocation-free counterpart of
  /// StaysIn for hot read paths like the cross-shard contact fan-out.
  /// After sealing this holds only open stays; cold-aware callers use
  /// AppendContactsForStay / StaysIn. Valid until the next
  /// RecordMovement.
  const std::vector<Stay>& StaysInIndex(LocationId l) const;

  /// Contact query (the SARS scenario of Section 1): every (subject,
  /// location, overlap) triple where `other` shared a location with `s`
  /// for at least `min_overlap` chronons during `window`.
  struct Contact {
    SubjectId other = kInvalidSubject;
    LocationId location = kInvalidLocation;
    Chronon overlap_start = 0;
    Chronon overlap_end = 0;
  };
  std::vector<Contact> ContactsOf(SubjectId s, const TimeInterval& window,
                                  Chronon min_overlap = 1) const;

  /// Appends to `out` every contact between `mine` (one stay of the
  /// probe subject) and this database's stays — hot AND cold — in
  /// `mine`'s location. The per-database step both ContactsOf and the
  /// sharded fan-out build on, so local and sharded answers stay
  /// identical; callers SortContacts when done.
  void AppendContactsForStay(const Stay& mine, const TimeInterval& window,
                             Chronon min_overlap,
                             std::vector<Contact>* out) const;

  /// Raw HOT movement log, in arrival order — what snapshots persist.
  /// After sealing this is only the tail since the last seal (plus one
  /// synthetic opening event per open stay); use total_events() for the
  /// logical history size.
  const std::vector<MovementEvent>& history() const { return history_; }

  /// Logical history length: hot events + events folded into cold
  /// segments + events dropped past the retention horizon. Equals
  /// history().size() exactly until the first seal.
  uint64_t total_events() const {
    return history_.size() + cold_events_ + dropped_events_;
  }

  /// Number of subjects currently inside some location.
  size_t tracked_subjects() const { return current_.size(); }

  // --- Cold tier -----------------------------------------------------------

  /// Seals every completed stay into a new immutable cold segment and
  /// shrinks the hot tier to the open stays (each represented by one
  /// synthetic opening event with from = kInvalidLocation, so replaying
  /// history() rebuilds the hot tier byte-identically). Queries are
  /// unaffected — they merge the tiers. Returns nullptr when there is
  /// nothing to seal (no completed stays).
  std::shared_ptr<const ColdSegment> SealCompletedStays();

  /// Installs a recovered cold tier (oldest segment first) plus the
  /// count of events already dropped past the horizon. Recovery-time
  /// only: replaces any existing tier and rebuilds the per-subject
  /// monotonicity floors from the segments.
  void AttachColdTier(
      std::vector<std::shared_ptr<const ColdSegment>> segments,
      uint64_t dropped_events);

  /// Replaces the cold segment list after compaction merged segments
  /// and/or retention dropped a prefix. `dropped_events` is the new
  /// cumulative drop count (monotonic). Monotonicity floors are kept —
  /// dropping history must not re-admit out-of-order events the
  /// unbounded database would reject.
  void ReplaceColdSegments(
      std::vector<std::shared_ptr<const ColdSegment>> segments,
      uint64_t dropped_events);

  /// The sealed segments, oldest first.
  const std::vector<std::shared_ptr<const ColdSegment>>& cold_segments()
      const {
    return cold_;
  }

  /// Events folded into the cold tier / dropped beyond the horizon.
  uint64_t cold_events() const { return cold_events_; }
  uint64_t dropped_events() const { return dropped_events_; }

  /// Approximate in-memory bytes held by the cold columns.
  size_t ColdBytes() const;

 private:
  std::vector<MovementEvent> history_;
  /// Completed + open stays per subject since the last seal, time order.
  std::unordered_map<SubjectId, std::vector<Stay>> stays_by_subject_;
  /// Stay indices (into stays_by_subject_) are implicit; per-location we
  /// keep copies for fast location scans (building-scale data).
  std::unordered_map<LocationId, std::vector<Stay>> stays_by_location_;
  std::unordered_map<SubjectId, LocationId> current_;
  /// Sealed segments, oldest first (shared: checkpoints hold references
  /// while persisting without copying columns).
  std::vector<std::shared_ptr<const ColdSegment>> cold_;
  uint64_t cold_events_ = 0;
  uint64_t dropped_events_ = 0;
  /// Exit time of each subject's last *sealed* stay: the monotonicity
  /// check must survive sealing (and, within a process, retention), or a
  /// sealed runtime would accept out-of-order events the unbounded one
  /// rejects.
  std::unordered_map<SubjectId, Chronon> sealed_floor_;

  /// Patches the open stay copy in stays_by_location_ when it closes.
  void CloseLocationStay(SubjectId s, LocationId l, Chronon exit_time);
};

/// Appends to `out` every contact between `mine` (one stay of the probe
/// subject, clipped to `window`) and the stays in `candidates` that share
/// its location for at least `min_overlap` chronons. Candidates of the
/// probe subject itself are skipped. Shared by MovementDatabase::ContactsOf
/// and the sharded MovementView fan-out so both produce identical
/// contact sets.
void AppendStayContacts(const Stay& mine, const TimeInterval& window,
                        Chronon min_overlap,
                        const std::vector<Stay>& candidates,
                        std::vector<MovementDatabase::Contact>* out);

/// Deterministic contact ordering: (overlap_start, other, location,
/// overlap_end). Shared final sort of every ContactsOf implementation.
void SortContacts(std::vector<MovementDatabase::Contact>* contacts);

}  // namespace ltam

#endif  // LTAM_ENGINE_MOVEMENT_DB_H_
