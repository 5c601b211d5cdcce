// Copyright 2026 The LTAM Authors.
// Logged-event codec of the durable runtime.
//
// The write-ahead logs (one per shard, `events-<k>-<epoch>.wal`) persist
// the enforcement event stream as codec records:
//
//   ev-entry <t> <s> <l>   access request (Definition 6)
//   ev-exit  <t> <s>       site exit
//   ev-obs   <t> <s> <l>   tracking observation
//   ev-tick  <t>           patrol tick
//
// Decoding is strict: field counts, integer syntax, and id ranges are all
// validated, so a corrupted or torn log surfaces as a ParseError instead
// of wrapping ids into nonsense (a negative subject must never become
// 4294967295). Applying a decoded event to an engine is deterministic —
// replaying the same prefix always rebuilds the same state.

#ifndef LTAM_STORAGE_EVENT_LOG_H_
#define LTAM_STORAGE_EVENT_LOG_H_

#include "engine/access_control_engine.h"
#include "engine/events.h"
#include "storage/codec.h"
#include "util/result.h"

namespace ltam {

/// One decoded log entry: either a patrol tick or an access event.
struct LoggedEvent {
  bool is_tick = false;
  /// Tick time when `is_tick`; otherwise unset.
  Chronon tick_time = 0;
  /// The access event when `!is_tick`.
  AccessEvent event;
};

/// Encodes an access event as its WAL record.
Record EncodeEventRecord(const AccessEvent& event);

/// Encodes a patrol tick as its WAL record.
Record EncodeTickRecord(Chronon t);

/// Decodes a WAL record. ParseError on unknown types, missing/extra
/// fields, non-numeric fields, or ids outside their 32-bit ranges.
Result<LoggedEvent> DecodeEventRecord(const Record& record);

/// Applies a decoded event to `engine` (the replay step). The decision
/// outcome is discarded: replay re-applies the historical stream, and
/// failures (e.g. an exit that was rejected live) repeat deterministically.
void ApplyLoggedEvent(AccessControlEngine* engine, const LoggedEvent& event);

/// Decode + apply in one step — the replay callback body.
Status ApplyLoggedRecord(AccessControlEngine* engine, const Record& record);

}  // namespace ltam

#endif  // LTAM_STORAGE_EVENT_LOG_H_
