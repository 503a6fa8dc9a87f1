// ReactorPool — N event loops in one process, with cross-loop task passing.
//
// Loop 0 is the *home* loop: it belongs to the thread that owns the pool
// (the node's run() thread) and is never driven by the pool itself — the
// owner keeps calling loop(0).run_once() exactly as it did with a lone
// Reactor, interleaved with drain_tasks(0). Loops 1..N-1 are *worker*
// loops, each pinned to one thread spawned by start(); a worker's turn is
// drain-tasks → run_once, forever, plus one final drain after the stop
// flag so no posted task is ever dropped.
//
// Sharding model (DESIGN.md §14): a session's fds and timers live on
// exactly one loop for its whole life — the loop touches them, nobody
// else does. Cross-loop work travels through post(): an MPSC deque per
// loop, mutex-guarded, whose enqueue kicks the target loop's eventfd only
// when the queue was empty (a non-empty queue already has a wakeup in
// flight or a drain underway that will take the new task too — no lost
// wakeups). The mutex serializes enqueues, so tasks from one producer run
// in the order it posted them (FIFO per producer; pinned by
// test_reactor's PoolContention).
//
// size()==1 degenerates to exactly the single-Reactor world: no threads,
// next_loop() always 0, post(0,·) is just a deferred call on the home
// turn. VOLLEY_NET_THREADS (default 1) picks the size at node
// construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/reactor.h"

namespace volley::net {

/// VOLLEY_NET_THREADS (>=1; unset/invalid -> 1): total loop count for
/// nodes that shard sessions across loops.
std::size_t net_threads_from_env();

/// Tri-state per-node override: negative = follow VOLLEY_NET_THREADS,
/// otherwise the value itself (clamped to >= 1).
std::size_t resolve_net_threads(int override_count);

class ReactorPool {
 public:
  using Task = std::function<void()>;

  /// `n_loops` reactors (>=1), all on the same backend; `uring_override`
  /// is forwarded to resolve_backend (benches force both backends in one
  /// process).
  explicit ReactorPool(std::size_t n_loops, int uring_override = -1);
  ~ReactorPool();
  ReactorPool(const ReactorPool&) = delete;
  ReactorPool& operator=(const ReactorPool&) = delete;

  std::size_t size() const { return loops_.size(); }
  Reactor& loop(std::size_t i) { return *loops_[i]; }
  ReactorBackend backend() const { return loops_[0]->backend(); }

  /// Worker loops (1..N-1) start running on their own threads. No-op when
  /// size()==1. The home loop stays the caller's to drive.
  void start();

  /// Stops the workers: each drains its queue once more after observing
  /// the flag, then joins. Idempotent.
  void stop();

  bool running() const { return !threads_.empty(); }

  /// Enqueues `task` for `loop_index`'s thread; runs between that loop's
  /// reactor turns, in FIFO order per producer. Safe from any thread.
  /// Tasks for the home loop run when the owner calls drain_tasks(0).
  void post(std::size_t loop_index, Task task);

  /// Runs every task currently queued for `loop_index`. Call only from
  /// the thread that owns that loop (the pool owner for 0; workers call
  /// it themselves). Returns the number of tasks run.
  std::size_t drain_tasks(std::size_t loop_index);

  /// Next worker loop, round-robin (1..N-1); 0 when there are no workers.
  /// Sessions land here at accept time and stay for life.
  std::size_t next_loop();

  /// eventfd-kicks every loop (stop paths; home included so the owner's
  /// run_once returns promptly).
  void wakeup_all();

  /// Registers per-loop gauges (volley_reactor_loop<i>_*) for all loops
  /// in the caller's current metrics registry. Call before start().
  void enable_loop_stats();

 private:
  struct TaskQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void run_worker(std::size_t loop_index);

  std::vector<std::unique_ptr<Reactor>> loops_;
  std::vector<std::unique_ptr<TaskQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::size_t rr_next_{1};
};

}  // namespace volley::net
