#include "tracer.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench
{

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

Tracer::Buffer &
Tracer::local()
{
    thread_local Buffer *buf = nullptr;
    if (!buf) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<Buffer>());
        buf = buffers_.back().get();
        buf->slot = buffers_.size();
    }
    return *buf;
}

std::uint64_t
Tracer::open(const char *name, std::uint32_t tag, std::uint64_t parent)
{
    Buffer &b = local();
    Span s;
    s.id = (b.slot << 40) | ++b.serial;
    s.parent = parent;
    s.name = name;
    s.tag = tag;
    s.t0 = nowNs();
    b.open.push_back(s);
    return s.id;
}

void
Tracer::close(std::uint64_t id)
{
    const std::int64_t t1 = nowNs();
    Buffer &b = local();
    // Spans close in LIFO order on their thread.
    if (b.open.empty() || b.open.back().id != id)
        return;
    Span s = b.open.back();
    b.open.pop_back();
    s.t1 = t1;
    b.done.push_back(s);
}

std::uint64_t
Tracer::current()
{
    Buffer &b = local();
    return b.open.empty() ? 0 : b.open.back().id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const auto &b : buffers_)
        out.insert(out.end(), b->done.begin(), b->done.end());
    return out;
}

std::vector<double>
Tracer::durationsMs(const std::string &name, std::uint32_t tag) const
{
    std::vector<double> out;
    for (const Span &s : spans()) {
        if (name == s.name && (tag == kNoTag || tag == s.tag))
            out.push_back(s.ms());
    }
    return out;
}

std::map<std::string, double>
Tracer::selfMsByModule() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> kids;
    for (std::size_t i = 0; i < all.size(); i++) {
        if (all[i].parent)
            kids[all[i].parent].push_back(i);
    }
    std::map<std::string, double> self;
    for (const Span &s : all) {
        // Union of the children's intervals, clipped to the parent:
        // children on parallel threads overlap each other.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            for (const std::size_t k : it->second) {
                const std::int64_t a = std::max(all[k].t0, s.t0);
                const std::int64_t b = std::min(all[k].t1, s.t1);
                if (a < b)
                    iv.emplace_back(a, b);
            }
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, end = s.t0;
        for (const auto &[a, b] : iv) {
            const std::int64_t from = std::max(a, end);
            if (b > from) {
                covered += b - from;
                end = b;
            }
        }
        const std::string name(s.name);
        const std::string module = name.substr(0, name.find('.'));
        if (module == "untraced")
            continue;
        self[module] +=
            static_cast<double>(s.t1 - s.t0 - covered) / 1e6;
    }
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "id\tparent\tname\ttag\tt0_ns\tt1_ns\n");
    for (const Span &s : spans()) {
        std::fprintf(f, "%llu\t%llu\t%s\t%d\t%lld\t%lld\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.name,
                     s.tag == kNoTag ? -1 : static_cast<int>(s.tag),
                     static_cast<long long>(s.t0),
                     static_cast<long long>(s.t1));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
