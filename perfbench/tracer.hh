/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded only by the benchmark program, around its calls
 * into each module's public functions; nothing inside the library is
 * instrumented. Each thread appends to its own buffer, so recording
 * takes no lock after a thread's first span. Spans are written out
 * (one TSV line each) when the run ends.
 *
 * A span's name is "<module>.<function>"; its self time is its
 * duration minus the part of its interval covered by its children.
 * Spans of module "untraced" mark work run with tracing off: they
 * cover their parent's interval but have no self time of their own.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Tag of a span that belongs to no app. */
constexpr std::uint32_t kNoTag = ~0u;

struct Span
{
    std::uint64_t id = 0;     //!< (buffer slot << 40) | serial
    std::uint64_t parent = 0; //!< 0 for a root span
    const char *name = "";    //!< static "<module>.<function>"
    std::uint32_t tag = kNoTag; //!< app index, or kNoTag
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;

    double ms() const { return static_cast<double>(t1 - t0) / 1e6; }
};

class Tracer
{
  public:
    bool on() const { return on_.load(std::memory_order_relaxed); }
    void setOn(bool on) { on_.store(on, std::memory_order_relaxed); }

    /** Open a span on the calling thread; returns its id. */
    std::uint64_t open(const char *name, std::uint32_t tag,
                       std::uint64_t parent);
    /** Close span @p id (opened on this thread) and record it. */
    void close(std::uint64_t id);

    /** Innermost span open on the calling thread (0 if none). */
    std::uint64_t current();

    /** Every closed span, in buffer order. */
    std::vector<Span> spans() const;

    /** Durations in ms of the spans named @p name (any tag if kNoTag). */
    std::vector<double> durationsMs(const std::string &name,
                                    std::uint32_t tag = kNoTag) const;

    /** Self time in ms summed per module (name prefix before '.'). */
    std::map<std::string, double> selfMsByModule() const;

    /** Write every span as TSV; returns false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Buffer
    {
        std::uint64_t slot = 0;
        std::uint64_t serial = 0;
        std::vector<Span> done;
        std::vector<Span> open; //!< stack of spans not yet closed
    };
    Buffer &local();

    std::atomic<bool> on_{false};
    mutable std::mutex mutex_; //!< guards buffers_ (registration)
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** The process-wide tracer (the benchmark is one process). */
Tracer &tracer();

/**
 * RAII span: no-op when tracing is off or @p active is false.
 * @p parent defaults to the innermost span open on this thread;
 * worker threads pass the span of the call that spawned them.
 */
class Scoped
{
  public:
    explicit Scoped(const char *name, std::uint32_t tag = kNoTag,
                    std::uint64_t parent = ~std::uint64_t(0),
                    bool active = true)
    {
        Tracer &t = tracer();
        if (active && t.on())
            id_ = t.open(name, tag,
                         parent == ~std::uint64_t(0) ? t.current()
                                                     : parent);
    }
    ~Scoped()
    {
        if (id_)
            tracer().close(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    std::uint64_t id_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
