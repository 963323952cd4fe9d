#include "lin/checker.h"

// IWYU: everything used directly, not via transitive includes of checker.h.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.h"

namespace cnet::lin {

CheckResult check(const History& history) {
  CheckResult result;
  result.total_ops = history.size();
  if (history.empty()) return result;

  // Sweep events in time order. At equal times, starts are processed before
  // ends so that an op ending exactly when another starts counts as
  // overlapping (strict precedence only).
  struct Event {
    double time;
    bool is_end;  // false = start
    std::size_t op;
  };
  std::vector<Event> events;
  events.reserve(history.size() * 2);
  for (std::size_t i = 0; i < history.size(); ++i) {
    CNET_CHECK_MSG(history[i].start <= history[i].end, "operation ends before it starts");
    events.push_back({history[i].start, false, i});
    events.push_back({history[i].end, true, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.is_end != b.is_end) return !a.is_end;  // starts first
    return a.op < b.op;
  });

  std::uint64_t max_completed = 0;
  bool any_completed = false;
  for (const Event& ev : events) {
    const Operation& op = history[ev.op];
    if (ev.is_end) {
      if (!any_completed || op.value > max_completed) {
        max_completed = op.value;
        any_completed = true;
      }
    } else if (any_completed && max_completed > op.value) {
      ++result.nonlinearizable_ops;
      result.worst_inversion = std::max(result.worst_inversion, max_completed - op.value);
      result.violating_ops.push_back(ev.op);
    }
  }
  return result;
}

SeqConsistencyResult check_sequential_consistency(const History& history) {
  SeqConsistencyResult result;
  result.total_ops = history.size();
  // Order each actor's operations by start time (same-actor operations are
  // sequential, so start order is program order), then count descents.
  std::map<std::uint32_t, std::vector<const Operation*>> by_actor;
  for (const Operation& op : history) by_actor[op.actor].push_back(&op);
  for (auto& [actor, ops] : by_actor) {
    std::sort(ops.begin(), ops.end(),
              [](const Operation* a, const Operation* b) { return a->start < b->start; });
    for (std::size_t i = 1; i < ops.size(); ++i) {
      if (ops[i]->value < ops[i - 1]->value) ++result.program_order_violations;
    }
  }
  return result;
}

bool values_form_range(const History& history, std::string* message) {
  std::vector<std::uint64_t> values;
  values.reserve(history.size());
  for (const Operation& op : history) values.push_back(op.value);
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) {
    if (values[i] != i) {
      if (message) {
        std::ostringstream msg;
        msg << "counting violated: rank " << i << " holds value " << values[i] << " ("
            << values.size() << " ops total)";
        *message = msg.str();
      }
      return false;
    }
  }
  return true;
}

WindowedChecker::WindowedChecker(double lag) : lag_(lag) { CNET_CHECK(lag >= 0.0); }

void WindowedChecker::add(const Operation& op) {
  CNET_CHECK_MSG(op.start <= op.end, "operation ends before it starts");
  if (!any_seen_ || op.end > max_end_seen_) max_end_seen_ = op.end;
  any_seen_ = true;
  ++total_;
  insert_record(op.end, op.value);
  pending_.push(op);
  // Everything starting at or before the watermark can be judged: under the
  // lag contract no future report can end before such a start.
  drain(max_end_seen_ - lag_);
  evict(max_end_seen_ - 2.0 * lag_);
}

void WindowedChecker::finish() {
  drain(max_end_seen_ + 1.0);
}

void WindowedChecker::drain(double start_cutoff) {
  while (!pending_.empty() && pending_.top().start <= start_cutoff) {
    judge(pending_.top());
    pending_.pop();
  }
}

void WindowedChecker::judge(const Operation& op) {
  // Max value among operations strictly ending before op.start.
  std::uint64_t best = floor_value_;
  bool have = has_floor_;
  auto it = records_.lower_bound(op.start);
  if (it != records_.begin()) {
    --it;
    if (!have || it->second > best) {
      best = it->second;
      have = true;
    }
  }
  if (have && best > op.value) ++violations_;
}

void WindowedChecker::insert_record(double end, std::uint64_t value) {
  // Maintain a strictly increasing staircase of (end -> max value).
  auto it = records_.upper_bound(end);
  if (it != records_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= value) return;  // dominated by an earlier record
    if (prev->first == end) {
      prev->second = value;
      it = std::next(prev);
      // fall through to erase dominated successors
    } else {
      it = std::next(records_.emplace_hint(it, end, value));
    }
  } else if (!has_floor_ || value > floor_value_) {
    it = std::next(records_.emplace_hint(it, end, value));
  } else {
    return;  // dominated by the floor
  }
  while (it != records_.end() && it->second <= value) it = records_.erase(it);
}

void WindowedChecker::evict(double end_cutoff) {
  auto it = records_.begin();
  while (it != records_.end() && it->first < end_cutoff) {
    floor_value_ = it->second;  // staircase is increasing, so last wins
    has_floor_ = true;
    it = records_.erase(it);
  }
}

}  // namespace cnet::lin
