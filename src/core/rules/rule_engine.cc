// Copyright 2026 The LTAM Authors.

#include "core/rules/rule_engine.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace ltam {

RuleEngine::RuleEngine(AuthorizationDatabase* auth_db,
                       UserProfileDatabase* profiles,
                       const MultilevelLocationGraph* graph)
    : auth_db_(auth_db), profiles_(profiles), graph_(graph) {
  LTAM_CHECK(auth_db != nullptr);
  LTAM_CHECK(profiles != nullptr);
  LTAM_CHECK(graph != nullptr);
}

Result<RuleId> RuleEngine::AddRule(AuthorizationRule rule) {
  if (!auth_db_->Exists(rule.base)) {
    return Status::NotFound("rule base authorization #" +
                            std::to_string(rule.base) + " does not exist");
  }
  rule.id = static_cast<RuleId>(rules_.size());
  rules_.push_back(std::move(rule));
  return rules_.back().id;
}

Status RuleEngine::RemoveRule(RuleId id) {
  auto it = std::find_if(rules_.begin(), rules_.end(),
                         [id](const AuthorizationRule& r) { return r.id == id; });
  if (it == rules_.end()) return Status::NotFound("no such rule");
  auth_db_->RevokeDerivedBy(id);
  rules_.erase(it);
  return Status::OK();
}

Result<std::vector<LocationTemporalAuthorization>> RuleEngine::Expand(
    const AuthorizationRule& rule) const {
  if (!auth_db_->Exists(rule.base)) {
    return Status::NotFound("rule base authorization does not exist");
  }
  const AuthRecord& base_rec = auth_db_->record(rule.base);
  if (base_rec.revoked) {
    // A revoked base derives nothing (the rule stays registered; it will
    // produce again if the base is re-granted under the same id).
    return std::vector<LocationTemporalAuthorization>{};
  }
  const LocationTemporalAuthorization& base = base_rec.auth;

  // Temporal elements: unset operators copy the base duration (WHENEVER).
  const WheneverOp whenever;
  const TemporalOperator& entry_op =
      rule.op_entry ? *rule.op_entry : static_cast<const TemporalOperator&>(whenever);
  const TemporalOperator& exit_op =
      rule.op_exit ? *rule.op_exit : static_cast<const TemporalOperator&>(whenever);
  LTAM_ASSIGN_OR_RETURN(IntervalSet entry_set,
                        entry_op.Apply(base.entry_duration(), rule.valid_from));
  LTAM_ASSIGN_OR_RETURN(IntervalSet exit_set,
                        exit_op.Apply(base.exit_duration(), rule.valid_from));

  // Subject element.
  std::vector<SubjectId> subjects;
  if (rule.op_subject) {
    LTAM_ASSIGN_OR_RETURN(subjects, rule.op_subject->Apply(base.subject(),
                                                           *profiles_));
  } else {
    subjects.push_back(base.subject());
  }

  // Location element.
  std::vector<LocationId> locations;
  if (rule.op_location) {
    LTAM_ASSIGN_OR_RETURN(locations, rule.op_location->Apply(base.location(),
                                                             *graph_));
  } else {
    locations.push_back(base.location());
  }

  // Entry-count element.
  int64_t n = rule.exp_n.has_value() ? rule.exp_n->Eval(base.max_entries())
                                     : base.max_entries();

  // Cross product: one derived authorization per (entry interval, subject,
  // location). For each entry interval we pick the exit window that makes
  // the pair satisfy Definition 4 (tos >= tis, toe >= tie), clamping the
  // exit start up to the entry start; exit windows ending before the entry
  // window are unusable and dropped.
  std::vector<LocationTemporalAuthorization> out;
  for (const TimeInterval& entry : entry_set.intervals()) {
    for (const TimeInterval& exit_raw : exit_set.intervals()) {
      Chronon exit_start = std::max(exit_raw.start(), entry.start());
      Chronon exit_end = exit_raw.end();
      if (exit_end < entry.end()) continue;  // Cannot satisfy toe >= tie.
      if (exit_start > exit_end) continue;
      for (SubjectId s : subjects) {
        for (LocationId l : locations) {
          Result<LocationTemporalAuthorization> derived =
              LocationTemporalAuthorization::Make(
                  entry, TimeInterval(exit_start, exit_end),
                  LocationAuthorization{s, l}, n);
          if (derived.ok()) out.push_back(*derived);
        }
      }
    }
  }
  return out;
}

Result<DerivationReport> RuleEngine::DeriveRule(RuleId id) {
  auto it = std::find_if(rules_.begin(), rules_.end(),
                         [id](const AuthorizationRule& r) { return r.id == id; });
  if (it == rules_.end()) return Status::NotFound("no such rule");
  LTAM_ASSIGN_OR_RETURN(std::vector<LocationTemporalAuthorization> derived,
                        Expand(*it));
  DerivationReport report;
  report.rules_evaluated = 1;
  // The rule's active records, bucketed by (subject, location); each
  // derivation that equals one of them keeps it instead of re-adding.
  auto pair_key = [](const LocationTemporalAuthorization& auth) {
    return (static_cast<uint64_t>(auth.subject()) << 32) | auth.location();
  };
  std::unordered_map<uint64_t, std::vector<AuthId>> unmatched;
  for (AuthId prev : auth_db_->DerivedBy(id)) {
    unmatched[pair_key(auth_db_->record(prev).auth)].push_back(prev);
  }
  for (const LocationTemporalAuthorization& auth : derived) {
    std::vector<AuthId>& same_pair = unmatched[pair_key(auth)];
    auto kept = std::find_if(
        same_pair.begin(), same_pair.end(),
        [&](AuthId prev) { return auth_db_->record(prev).auth == auth; });
    if (kept != same_pair.end()) {
      same_pair.erase(kept);
      continue;
    }
    auth_db_->AddDerived(auth, id);
    ++report.derived;
  }
  for (const auto& [key, stale] : unmatched) {
    for (AuthId prev : stale) {
      LTAM_RETURN_IF_ERROR(auth_db_->Revoke(prev));
      ++report.revoked;
    }
  }
  last_profile_version_ = profiles_->version();
  return report;
}

Result<DerivationReport> RuleEngine::DeriveAll() {
  DerivationReport total;
  for (const AuthorizationRule& rule : rules_) {
    LTAM_ASSIGN_OR_RETURN(DerivationReport r, DeriveRule(rule.id));
    total.rules_evaluated += r.rules_evaluated;
    total.derived += r.derived;
    total.revoked += r.revoked;
    total.skipped += r.skipped;
  }
  last_profile_version_ = profiles_->version();
  return total;
}

Result<DerivationReport> RuleEngine::RefreshIfProfilesChanged() {
  if (profiles_->version() == last_profile_version_) {
    return DerivationReport{};
  }
  return DeriveAll();
}

}  // namespace ltam
