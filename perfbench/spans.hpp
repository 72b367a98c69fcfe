// SPDX-License-Identifier: Apache-2.0
// In-memory span recorder for the host-speed benchmark. The benchmark
// opens a span around every public call it makes into a simulator layer
// (kernel build, cluster construction and load, the run, verification,
// energy accounting, the System driver). Spans nest by call order, carry
// the id of the operation (one simulation) they belong to, and are only
// written out when the benchmark ends.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 for a root
  unsigned long long op = 0;

  double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Every span opened from now on belongs to operation `op`.
  void begin_op(unsigned long long op) { op_ = op; }

  int open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op_;
    span.start_s = now();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  using Clock = std::chrono::steady_clock;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  unsigned long long op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span on construction and closes it on scope exit, exceptions
/// included, so the recorded tree always nests.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Scope() { tracer_.close(id_); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
