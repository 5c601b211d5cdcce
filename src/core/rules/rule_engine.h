// Copyright 2026 The LTAM Authors.
// Derivation of authorizations from rules (Section 4).
//
// "An authorization rule generates a number of authorizations based on an
// input authorization... The access control engine is also responsible
// for authorization derivation. When the administrator specifies new
// rules, [it] will evaluate the new rules on the existing authorizations
// and user profiles. The derived authorizations are then added to the
// authorization database."
//
// The engine also implements the re-derivation semantics of Example 1:
// "By specifying this rule, it is not necessary to create new
// authorizations if Alice is assigned a different supervisor. The system
// is able to automatically derive the authorizations for the new
// supervisor while the authorization for Bob will be revoked."

#ifndef LTAM_CORE_RULES_RULE_ENGINE_H_
#define LTAM_CORE_RULES_RULE_ENGINE_H_

#include <vector>

#include "core/auth_database.h"
#include "core/rules/rule.h"
#include "graph/multilevel_graph.h"
#include "profile/user_profile.h"

namespace ltam {

/// Outcome of one derivation pass.
struct DerivationReport {
  /// Rules evaluated.
  size_t rules_evaluated = 0;
  /// Authorizations newly added. A record the rule derives again is
  /// kept as it is and not counted.
  size_t derived = 0;
  /// Previously derived authorizations revoked because the rule no
  /// longer derives them.
  size_t revoked = 0;
  /// Candidate derivations dropped because the operator pipeline produced
  /// an entry/exit combination violating Definition 4 even after
  /// clamping, or produced no subjects/locations/durations.
  size_t skipped = 0;
};

/// Evaluates authorization rules against the authorization, profile, and
/// location databases.
class RuleEngine {
 public:
  /// The engine borrows all three stores; they must outlive it.
  RuleEngine(AuthorizationDatabase* auth_db, UserProfileDatabase* profiles,
             const MultilevelLocationGraph* graph);

  /// Registers a rule; validates that the base authorization exists.
  Result<RuleId> AddRule(AuthorizationRule rule);

  /// Removes a rule and revokes everything it derived.
  Status RemoveRule(RuleId id);

  /// The registered rules.
  const std::vector<AuthorizationRule>& rules() const { return rules_; }

  /// Re-derives all rules from current profiles and graph (see
  /// DeriveRule). Idempotent when nothing changed.
  Result<DerivationReport> DeriveAll();

  /// Re-derives a single rule. Every active record the rule derives again
  /// is kept unchanged, with its id and its entries_used, so re-deriving
  /// (as an in-process caller may after reopening a runtime) never
  /// refunds spent entries. Only records the rule no longer derives are
  /// revoked, and only new derivations are added.
  Result<DerivationReport> DeriveRule(RuleId id);

  /// DeriveAll() only when the profile database changed since the last
  /// derivation; returns an empty report otherwise.
  Result<DerivationReport> RefreshIfProfilesChanged();

  /// Expands one rule against its base authorization without touching the
  /// database — the derived quadruples in evaluation order.
  Result<std::vector<LocationTemporalAuthorization>> Expand(
      const AuthorizationRule& rule) const;

 private:
  AuthorizationDatabase* auth_db_;
  UserProfileDatabase* profiles_;
  const MultilevelLocationGraph* graph_;
  std::vector<AuthorizationRule> rules_;
  uint64_t last_profile_version_ = 0;
};

}  // namespace ltam

#endif  // LTAM_CORE_RULES_RULE_ENGINE_H_
