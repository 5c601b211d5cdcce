// Copyright 2026 The LTAM Authors.

#include "storage/event_log.h"

#include "engine/sharded_engine.h"
#include "storage/codec.h"

namespace ltam {

namespace {

constexpr std::string_view kEntryTag = "ev-entry";
constexpr std::string_view kExitTag = "ev-exit";
constexpr std::string_view kObserveTag = "ev-obs";
constexpr std::string_view kTickTag = "ev-tick";

}  // namespace

void AppendEventLine(const AccessEvent& event, std::string* out) {
  switch (event.kind) {
    case AccessEventKind::kRequestEntry:
      Line(out, kEntryTag)
          .Num(event.time)
          .Num(event.subject)
          .Num(event.location);
      return;
    case AccessEventKind::kRequestExit:
      Line(out, kExitTag).Num(event.time).Num(event.subject);
      return;
    case AccessEventKind::kObserve:
      Line(out, kObserveTag)
          .Num(event.time)
          .Num(event.subject)
          .Num(event.location);
      return;
  }
}

void AppendTickLine(Chronon t, std::string* out) {
  Line(out, kTickTag).Num(t);
}

Result<LoggedEvent> DecodeEventLine(std::string_view line) {
  LineReader record(line);
  const std::string_view tag = record.tag();
  LoggedEvent out;
  if (tag == kTickTag) {
    LTAM_ASSIGN_OR_RETURN(Chronon t, record.Int());
    out = LoggedEvent::Tick(t);
  } else if (tag == kEntryTag || tag == kObserveTag) {
    LTAM_ASSIGN_OR_RETURN(Chronon t, record.Int());
    LTAM_ASSIGN_OR_RETURN(SubjectId subject, record.Id());
    LTAM_ASSIGN_OR_RETURN(LocationId location, record.Id());
    out.event = tag == kEntryTag ? AccessEvent::Entry(t, subject, location)
                                 : AccessEvent::Observe(t, subject, location);
  } else if (tag == kExitTag) {
    LTAM_ASSIGN_OR_RETURN(Chronon t, record.Int());
    LTAM_ASSIGN_OR_RETURN(SubjectId subject, record.Id());
    out.event = AccessEvent::Exit(t, subject);
  } else {
    return Status::ParseError("unknown WAL record '" + std::string(tag) +
                              "'");
  }
  LTAM_RETURN_IF_ERROR(record.End());
  return out;
}

void ApplyLoggedEvent(AccessControlEngine* engine, const LoggedEvent& event) {
  if (event.is_tick) {
    engine->Tick(event.tick_time);
    return;
  }
  Decision ignored = ApplyAccessEvent(engine, event.event);
  (void)ignored;  // Deterministic re-application; denials repeat.
}

}  // namespace ltam
