// One-shot Future<T>/Promise<T> pair for the simulator.
//
// A Promise may be fulfilled at most once; TrySet is idempotent and reports
// whether this call won, and a later value is discarded. The buffer cache's
// in-flight stores and fleet::MetaCache's coalesced fills use it. RPC
// timeouts do not: rpc::Peer::Call keeps one record per call in its own
// frame, which the reply and the attempt's timer race to complete.
//
// Future and Promise share state via shared_ptr and are freely copyable.
// Each waiter gets its own copy of the value.
#ifndef SRC_SIM_FUTURE_H_
#define SRC_SIM_FUTURE_H_

#include <coroutine>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/sim/simulator.h"

namespace sim {

template <typename T>
class Future;

template <typename T>
class Promise {
 public:
  explicit Promise(Simulator& simulator) : state_(std::make_shared<State>(simulator)) {}

  Future<T> GetFuture() const { return Future<T>(state_); }

  // Fulfill the promise. Returns false if it was already fulfilled (the
  // value is then dropped). Waiters are resumed through the event queue.
  bool TrySet(T value) {
    if (state_->value.has_value()) {
      return false;
    }
    state_->value.emplace(std::move(value));
    for (std::coroutine_handle<> waiter : state_->waiters) {
      state_->simulator.Ready(waiter);
    }
    state_->waiters.clear();
    return true;
  }

  void Set(T value) { CHECK(TrySet(std::move(value))); }

  bool IsSet() const { return state_->value.has_value(); }

 private:
  friend class Future<T>;
  struct State {
    explicit State(Simulator& s) : simulator(s) {}
    Simulator& simulator;
    std::optional<T> value;
    std::vector<std::coroutine_handle<>> waiters;
  };

  std::shared_ptr<State> state_;
};

template <typename T>
class [[nodiscard]] Future {
 public:
  Future() = default;

  bool await_ready() const noexcept { return state_->value.has_value(); }
  void await_suspend(std::coroutine_handle<> h) { state_->waiters.push_back(h); }
  // Futures can be awaited by several coroutines; each gets a copy.
  T await_resume() {
    CHECK(state_->value.has_value());
    return *state_->value;
  }

  bool IsSet() const { return state_->value.has_value(); }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<typename Promise<T>::State> s) : state_(std::move(s)) {}

  std::shared_ptr<typename Promise<T>::State> state_;
};

}  // namespace sim

#endif  // SRC_SIM_FUTURE_H_
