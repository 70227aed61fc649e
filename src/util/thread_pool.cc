/**
 * @file
 * Work-stealing thread pool implementation.
 */

#include "util/thread_pool.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/timer.hh"

namespace heteromap {

std::size_t
ThreadPool::defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool &
ThreadPool::shared()
{
    // Function-local static: constructed on first use, joined at
    // process exit after main()'s pools are gone.
    static ThreadPool pool(defaultThreadCount());
    return pool;
}

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        stop_.store(true);
    }
    idle_cv_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

void
ThreadPool::submit(Task task)
{
    HM_ASSERT(task != nullptr, "submitted an empty task");
    HM_ASSERT(!stop_.load(), "submit() on a stopping pool");
    Worker &target =
        *workers_[next_.fetch_add(1) % workers_.size()];
    pending_.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(target.mutex);
        target.queue.push_back(std::move(task));
    }
    // Publish under idle_mutex_ so a worker checking its wait
    // predicate cannot miss the increment.
    {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        // Outside the macro: telemetry-OFF builds never evaluate its
        // arguments, and workers wait on this count.
        const std::size_t depth = queued_.fetch_add(1) + 1;
        HM_GAUGE_SET("pool.queue_depth", double(depth));
    }
    idle_cv_.notify_one();
}

bool
ThreadPool::tryPop(std::size_t self, Task &task)
{
    // Own queue first (front: submission order), then steal from the
    // back of each sibling, scanning from our right-hand neighbour.
    {
        Worker &own = *workers_[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.queue.empty()) {
            task = std::move(own.queue.front());
            own.queue.pop_front();
            const std::size_t depth = queued_.fetch_sub(1) - 1;
            HM_GAUGE_SET("pool.queue_depth", double(depth));
            return true;
        }
    }
    for (std::size_t offset = 1; offset < workers_.size(); ++offset) {
        Worker &victim = *workers_[(self + offset) % workers_.size()];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.queue.empty()) {
            task = std::move(victim.queue.back());
            victim.queue.pop_back();
            const std::size_t depth = queued_.fetch_sub(1) - 1;
            HM_GAUGE_SET("pool.queue_depth", double(depth));
            HM_COUNTER_INC("pool.steals");
            return true;
        }
    }
    return false;
}

void
ThreadPool::runTask(Task &task)
{
    HM_COUNTER_INC("pool.tasks");
    try {
        task();
    } catch (...) {
        std::lock_guard<std::mutex> lock(exception_mutex_);
        if (first_exception_ == nullptr)
            first_exception_ = std::current_exception();
    }
    std::size_t left = pending_.fetch_sub(1) - 1;
    if (left == 0) {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_all();
    }
}

void
ThreadPool::workerLoop(std::size_t self)
{
    for (;;) {
        Task task;
        if (tryPop(self, task)) {
            runTask(task);
            continue;
        }
        std::unique_lock<std::mutex> lock(idle_mutex_);
        if (stop_.load() && queued_.load() == 0)
            return;
        Timer idle;
        idle.start();
        idle_cv_.wait(lock, [this] {
            return stop_.load() || queued_.load() > 0;
        });
        HM_HISTOGRAM_RECORD_MS("pool.worker_idle_ms",
                               idle.elapsedMillis());
        if (stop_.load() && queued_.load() == 0)
            return;
    }
}

void
ThreadPool::wait()
{
    {
        std::unique_lock<std::mutex> lock(done_mutex_);
        done_cv_.wait(lock,
                      [this] { return pending_.load() == 0; });
    }
    std::exception_ptr rethrow;
    {
        std::lock_guard<std::mutex> lock(exception_mutex_);
        std::swap(rethrow, first_exception_);
    }
    if (rethrow != nullptr)
        std::rethrow_exception(rethrow);
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    // Per-call completion state. Helpers hold it by shared_ptr: one
    // dequeued after this call returned finds no index left and
    // touches nothing else (in particular, never @p body).
    struct Call {
        std::atomic<std::size_t> next{0}; //!< next unclaimed index
        std::atomic<std::size_t> done{0}; //!< indices finished
        std::mutex mutex;                 //!< guards error; cv rendezvous
        std::condition_variable cv;
        std::exception_ptr error;         //!< this call's first throw
    };
    auto call = std::make_shared<Call>();
    const auto *fn = &body;
    auto drain = [call, fn, count] {
        for (;;) {
            const std::size_t i =
                call->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                (*fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(call->mutex);
                if (call->error == nullptr)
                    call->error = std::current_exception();
            }
            // Release pairs with the caller's acquire below, so every
            // write body(i) made is visible once the caller returns.
            // Notifying under the mutex cannot slip between the
            // caller's predicate check and its wait.
            if (call->done.fetch_add(1, std::memory_order_release) + 1 ==
                count) {
                std::lock_guard<std::mutex> lock(call->mutex);
                call->cv.notify_all();
            }
        }
    };

    const std::size_t helpers = std::min(count - 1, threadCount());
    for (std::size_t h = 0; h < helpers; ++h)
        submit(drain);
    drain();
    if (call->done.load(std::memory_order_acquire) != count) {
        std::unique_lock<std::mutex> lock(call->mutex);
        call->cv.wait(lock, [&call, count] {
            return call->done.load(std::memory_order_acquire) == count;
        });
    }
    if (call->error != nullptr)
        std::rethrow_exception(call->error);
}

} // namespace heteromap
