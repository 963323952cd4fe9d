// Non-linearizability analysis per Definition 2.4 of the paper.
//
// An operation O is non-linearizable if some operation O' completely
// precedes O (O'.end < O.start) yet returned a *higher* counter value. The
// fraction of non-linearizable operations is the paper's headline metric
// (the y-axis of Figures 5 and 6).
//
// The offline checker runs in O(n log n): sweep operations by time,
// maintaining the maximum value among operations already completed; an
// operation is non-linearizable iff that running maximum at its start time
// exceeds its own value. Ties (O'.end == O.start) count as overlap, not
// precedence, matching the strict "completely precedes" of Def 2.3/2.4.
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "lin/history.h"

namespace cnet::lin {

struct CheckResult {
  std::uint64_t total_ops = 0;
  std::uint64_t nonlinearizable_ops = 0;
  /// Largest inversion observed: max over non-linearizable ops O of
  /// (max completed value before O.start) - O.value. 0 when linearizable.
  std::uint64_t worst_inversion = 0;
  /// Indices (into the input history) of the non-linearizable operations.
  std::vector<std::size_t> violating_ops;

  bool linearizable() const { return nonlinearizable_ops == 0; }
  double fraction() const {
    return total_ops == 0
               ? 0.0
               : static_cast<double>(nonlinearizable_ops) / static_cast<double>(total_ops);
  }
};

/// Full Def 2.4 analysis of a history (any order; the checker sorts).
///
/// Note that for this object class Def 2.4 decides *full* linearizability
/// [13], not just a necessary condition: a fetch-and-increment history with
/// unique values 0..n-1 is linearizable iff ordering operations by value is
/// consistent with real-time precedence, i.e. iff no operation is preceded
/// by a completed operation with a larger value — exactly what check()
/// counts. (The returned fraction is the paper's Def 2.4 measure; a
/// linearizable history is one with fraction 0.)
CheckResult check(const History& history);

/// Sequential-consistency analysis, specialised to counting (cf. Lamport
/// [16], which the paper contrasts with linearizability): a counting history
/// whose values are a permutation of 0..n-1 is sequentially consistent iff
/// every actor's successive operations return increasing values — the total
/// order "by value" is then a witness consistent with every program order.
/// Returns the operations that break their actor's program order. Every such
/// violation is also a Def 2.4 violation (same-actor operations never
/// overlap), so this count is a lower bound on check().nonlinearizable_ops —
/// typically far lower: real-time order across actors is what counting
/// networks sacrifice first.
struct SeqConsistencyResult {
  std::uint64_t total_ops = 0;
  std::uint64_t program_order_violations = 0;
  bool sequentially_consistent() const { return program_order_violations == 0; }
  double fraction() const {
    return total_ops == 0 ? 0.0
                          : static_cast<double>(program_order_violations) /
                                static_cast<double>(total_ops);
  }
};

SeqConsistencyResult check_sequential_consistency(const History& history);

/// True iff the multiset of returned values is exactly {0, 1, ..., n-1}:
/// the correctness condition of a counting network that completed n
/// operations from a fresh state. On failure, *message explains the first
/// discrepancy.
bool values_form_range(const History& history, std::string* message);

/// Incremental checker for long-running systems with bounded memory.
///
/// Assumption (documented contract): both the duration of any operation and
/// the out-of-orderness of completion reports are bounded by `lag` — i.e.,
/// every add() carries end >= max_end_seen - lag, and end - start <= lag for
/// every operation. Under that contract the incremental verdicts match the
/// offline checker exactly, with memory proportional to the number of
/// operations inside a 2*lag time window.
class WindowedChecker {
 public:
  explicit WindowedChecker(double lag);

  /// Report a completed operation.
  void add(const Operation& op);

  /// Analyse everything still pending (call once, at end of run).
  void finish();

  std::uint64_t total_ops() const { return total_; }
  std::uint64_t nonlinearizable_ops() const { return violations_; }
  double fraction() const {
    return total_ == 0 ? 0.0
                       : static_cast<double>(violations_) / static_cast<double>(total_);
  }

 private:
  void judge(const Operation& op);
  void insert_record(double end, std::uint64_t value);
  void drain(double start_cutoff);
  void evict(double end_cutoff);

  double lag_;
  double max_end_seen_ = 0.0;
  bool any_seen_ = false;

  /// Increasing staircase: end-time -> max value among ops ending <= it.
  std::map<double, std::uint64_t> records_;
  /// Largest value evicted from the staircase (floor for old queries).
  std::uint64_t floor_value_ = 0;
  bool has_floor_ = false;

  struct ByStart {
    bool operator()(const Operation& a, const Operation& b) const { return a.start > b.start; }
  };
  /// Ops whose start is too recent to be judged yet (some op ending before
  /// their start may still be unreported).
  std::priority_queue<Operation, std::vector<Operation>, ByStart> pending_;

  std::uint64_t total_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace cnet::lin
