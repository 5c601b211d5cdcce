// Copyright 2026 The LTAM Authors.
// Logged-event codec of the durable runtime.
//
// The write-ahead log (one per runtime, `events-<epoch>.wal`) persists
// the enforcement event stream as codec lines (storage/codec.h); a record
// carries no shard, since replay routes an event by its subject and
// applies a tick to every shard:
//
//   ev-entry <t> <s> <l>   access request (Definition 6)
//   ev-exit  <t> <s>       site exit
//   ev-obs   <t> <s> <l>   tracking observation
//   ev-tick  <t>           patrol tick
//
// A record renders straight into the caller's buffer, and a line decodes
// in place. Decoding is strict: field counts, integer syntax, and id
// ranges are all validated, so a corrupted or torn log surfaces as a
// ParseError instead of wrapping ids into nonsense (a negative subject
// must never become 4294967295). Applying a decoded event to an engine
// is deterministic — replaying the same prefix always rebuilds the same
// state.

#ifndef LTAM_STORAGE_EVENT_LOG_H_
#define LTAM_STORAGE_EVENT_LOG_H_

#include <string>
#include <string_view>

#include "engine/access_control_engine.h"
#include "engine/events.h"
#include "util/result.h"

namespace ltam {

/// One log record: either a patrol tick or an access event.
struct LoggedEvent {
  bool is_tick = false;
  /// Tick time when `is_tick`; otherwise unset.
  Chronon tick_time = 0;
  /// The access event when `!is_tick`.
  AccessEvent event;

  static LoggedEvent Access(const AccessEvent& event) {
    LoggedEvent out;
    out.event = event;
    return out;
  }
  static LoggedEvent Tick(Chronon t) {
    LoggedEvent out;
    out.is_tick = true;
    out.tick_time = t;
    return out;
  }
};

/// Appends an access event's WAL line (with its '\n') to `*out`.
void AppendEventLine(const AccessEvent& event, std::string* out);

/// Appends a patrol tick's WAL line (with its '\n') to `*out`.
void AppendTickLine(Chronon t, std::string* out);

/// Decodes one WAL line (no newline). ParseError on unknown tags,
/// missing/extra fields, integers that are not -?[0-9]+ within int64,
/// or ids outside their 32-bit ranges.
Result<LoggedEvent> DecodeEventLine(std::string_view line);

/// Applies a decoded event to `engine` (the replay step). The decision
/// outcome is discarded: replay re-applies the historical stream, and
/// failures (e.g. an exit that was rejected live) repeat deterministically.
void ApplyLoggedEvent(AccessControlEngine* engine, const LoggedEvent& event);

}  // namespace ltam

#endif  // LTAM_STORAGE_EVENT_LOG_H_
