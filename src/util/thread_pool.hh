/**
 * @file
 * Small work-stealing thread pool. Each worker owns a deque; it pops
 * its own tasks from the front and steals from the back of a sibling
 * when it runs dry, so coarse, unevenly sized tasks (e.g. the offline
 * training sweep's tuning cases) balance without a central queue
 * becoming a point of contention. Exceptions thrown by submit()ted
 * tasks are captured and rethrown from wait(); parallelFor() keeps
 * its own per-call completion and exception instead. Destruction
 * drains every queued task before joining.
 *
 * The pool reports itself through the telemetry registry
 * (util/telemetry.hh): "pool.tasks" and "pool.steals" counters, a
 * "pool.queue_depth" gauge, and a "pool.worker_idle_ms" histogram of
 * how long workers sit parked between tasks.
 */

#ifndef HETEROMAP_UTIL_THREAD_POOL_HH
#define HETEROMAP_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace heteromap {

/** Fixed-size work-stealing pool of worker threads. */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** @param threads Worker count; 0 picks defaultThreadCount(). */
    explicit ThreadPool(std::size_t threads = 0);

    /** Drains all queued tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t threadCount() const { return workers_.size(); }

    /** Enqueue @p task for execution on some worker. */
    void submit(Task task);

    /**
     * Block until every submitted task has finished. The first
     * exception any task threw since the last wait() is rethrown
     * here (the pool stays usable afterwards).
     */
    void wait();

    /**
     * Run body(0) .. body(count - 1) and return once all of them
     * have finished. The calling thread claims indices alongside at
     * most min(count - 1, threadCount()) helper tasks, so a pool
     * worker may call this on its own pool, and total parallelism is
     * threadCount() + 1. Completion and errors are per call: the
     * caller waits only for its own @p count indices (every write a
     * body made is visible on return) and rethrows only its own
     * first exception, so any number of threads may run parallelFor
     * on one pool at once. Iterations must not depend on each other.
     * Unlike wait(), this never reports submit() tasks' exceptions.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /** max(1, hardware concurrency) — the threads == 0 resolution. */
    static std::size_t defaultThreadCount();

    /**
     * Process-wide shared pool (defaultThreadCount() workers),
     * created on first use. Intended for short, coarse parallel
     * sections on hot paths — e.g. online graph measurement — where
     * spinning up a private pool per call would dominate the work.
     * Concurrent parallelFor() sections share its workers freely.
     */
    static ThreadPool &shared();

  private:
    /** One worker's state: its deque and the lock guarding it. */
    struct Worker {
        std::deque<Task> queue;
        std::mutex mutex;
    };

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    std::mutex idle_mutex_;            //!< sleep/wake of idle workers
    std::condition_variable idle_cv_;
    std::mutex done_mutex_;            //!< wait() rendezvous
    std::condition_variable done_cv_;

    std::atomic<std::size_t> queued_{0};  //!< tasks sitting in queues
    std::atomic<std::size_t> pending_{0}; //!< queued + running tasks
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> next_{0};    //!< round-robin submit cursor

    std::mutex exception_mutex_;
    std::exception_ptr first_exception_;

    void workerLoop(std::size_t self);
    bool tryPop(std::size_t self, Task &task);
    void runTask(Task &task);
};

} // namespace heteromap

#endif // HETEROMAP_UTIL_THREAD_POOL_HH
