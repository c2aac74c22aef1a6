//===- WorkQueue.h - Worker pool for batch-parallel loops -------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool (`std::jthread`) executing batches of
/// dynamically scheduled tasks: the points-to solver's sharded rounds and
/// the session's analysis-cell matrix. Each caller submits one batch and
/// blocks at the barrier until every task finished. Workers pull task
/// indexes from a shared atomic cursor (work stealing by over-partitioning),
/// so uneven task costs balance without per-task locking.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_SUPPORT_WORKQUEUE_H
#define JACKEE_SUPPORT_WORKQUEUE_H

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jackee {

/// Fixed pool of workers executing batches of indexed tasks.
class WorkerPool {
public:
  /// A task body: invoked as `Fn(TaskIndex, WorkerIndex)`. `WorkerIndex` is
  /// dense in `[0, workerCount())` and stable for the batch, so tasks can
  /// address per-worker scratch state without synchronization.
  using TaskFn = std::function<void(uint32_t, unsigned)>;

  explicit WorkerPool(unsigned Workers) {
    assert(Workers >= 1 && "pool needs at least one worker");
    Threads.reserve(Workers);
    for (unsigned I = 0; I != Workers; ++I)
      Threads.emplace_back(
          [this, I](std::stop_token St) { workerMain(St, I); });
  }

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  ~WorkerPool() {
    for (std::jthread &T : Threads)
      T.request_stop();
    {
      // Wake everyone so stop requests are observed.
      std::lock_guard<std::mutex> Lock(Mutex);
    }
    WorkReady.notify_all();
    // jthread joins on destruction.
  }

  unsigned workerCount() const {
    return static_cast<unsigned>(Threads.size());
  }

  /// Runs \p Fn for every task index in `[0, TaskCount)` across the pool and
  /// blocks until all tasks completed (the round barrier).
  void runBatch(uint32_t TaskCount, const TaskFn &Fn) {
    if (TaskCount == 0)
      return;
    std::unique_lock<std::mutex> Lock(Mutex);
    BatchFn = &Fn;
    BatchTaskCount = TaskCount;
    NextTask.store(0, std::memory_order_relaxed);
    WorkersRemaining = workerCount();
    ++Generation;
    Lock.unlock();
    WorkReady.notify_all();

    Lock.lock();
    BatchDone.wait(Lock, [this] { return WorkersRemaining == 0; });
    BatchFn = nullptr;
  }

private:
  void workerMain(std::stop_token St, unsigned WorkerIndex) {
    uint64_t SeenGeneration = 0;
    while (true) {
      const TaskFn *Fn;
      uint32_t Count;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        WorkReady.wait(Lock, St,
                       [&] { return Generation != SeenGeneration; });
        if (St.stop_requested())
          return;
        SeenGeneration = Generation;
        Fn = BatchFn;
        Count = BatchTaskCount;
      }

      while (true) {
        uint32_t Task = NextTask.fetch_add(1, std::memory_order_relaxed);
        if (Task >= Count)
          break;
        (*Fn)(Task, WorkerIndex);
      }

      std::unique_lock<std::mutex> Lock(Mutex);
      if (--WorkersRemaining == 0) {
        Lock.unlock();
        BatchDone.notify_all();
      }
    }
  }

  std::mutex Mutex;
  std::condition_variable_any WorkReady; ///< supports stop_token waits
  std::condition_variable BatchDone;
  uint64_t Generation = 0;
  const TaskFn *BatchFn = nullptr;
  uint32_t BatchTaskCount = 0;
  std::atomic<uint32_t> NextTask{0};
  unsigned WorkersRemaining = 0;
  std::vector<std::jthread> Threads;
};

} // namespace jackee

#endif // JACKEE_SUPPORT_WORKQUEUE_H
