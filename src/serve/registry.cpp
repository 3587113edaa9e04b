#include "serve/registry.h"

#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace serpens::serve {

MatrixRegistry::MatrixRegistry(core::SerpensConfig config)
    : accelerator_(config),
      budget_bytes_(config.resident_budget_bytes),
      decode_threads_(config.sim_threads)
{
}

std::shared_ptr<const core::PreparedMatrix>
MatrixRegistry::admit(const std::string& name, const sparse::CooMatrix& m)
{
    // Encode + decode outside the lock: admissions of different matrices
    // proceed concurrently and get() never blocks behind preprocessing.
    auto prepared = std::make_shared<const core::PreparedMatrix>(
        accelerator_.prepare(m));
    const std::uint64_t bytes = prepared->memory_footprint_bytes();
    return install(name, std::move(prepared), bytes, /*paid_encode=*/true);
}

std::shared_ptr<const core::PreparedMatrix>
MatrixRegistry::admit_image(const std::string& name, encode::SerpensImage image)
{
    SERPENS_CHECK(image.params().ha_channels ==
                      accelerator_.config().arch.ha_channels,
                  "image was encoded for a different channel count");
    auto prepared = std::make_shared<const core::PreparedMatrix>(
        core::PreparedMatrix::from_image(image, decode_threads_));
    const std::uint64_t bytes = prepared->memory_footprint_bytes();
    return install(name, std::move(prepared), bytes, /*paid_encode=*/false);
}

std::shared_ptr<const core::PreparedMatrix>
MatrixRegistry::install(const std::string& name,
                        std::shared_ptr<const core::PreparedMatrix> prepared,
                        std::uint64_t bytes, bool paid_encode)
{
    SERPENS_CHECK(budget_bytes_ == 0 || bytes <= budget_bytes_,
                  "matrix footprint exceeds the resident budget");

    const std::lock_guard<std::mutex> lock(mu_);
    // A same-name re-admission replaces in place: the name never leaves
    // the resident set, so it must not inflate the eviction count the
    // budget dashboards watch.
    if (erase_locked(name))
        ++stats_.replacements;

    // LRU eviction until the newcomer fits.
    obs::TraceRecorder* const rec = obs::trace_recorder();
    while (budget_bytes_ != 0 && bytes_resident_ + bytes > budget_bytes_) {
        SERPENS_ASSERT(!lru_.empty(), "budget accounting out of sync");
        if (rec != nullptr)
            rec->instant("registry.evict", "registry", 0, "bytes",
                         residents_.at(lru_.back()).bytes);
        erase_locked(lru_.back());
        ++stats_.evictions;
    }

    lru_.push_front(name);
    residents_[name] = Resident{prepared, bytes, lru_.begin()};
    bytes_resident_ += bytes;
    ++stats_.admissions;
    if (rec != nullptr)
        rec->instant("registry.admit", "registry", 0, "bytes", bytes);
    if (paid_encode)
        ++stats_.encodes;
    return prepared;
}

bool MatrixRegistry::erase_locked(const std::string& name)
{
    const auto it = residents_.find(name);
    if (it == residents_.end())
        return false;
    bytes_resident_ -= it->second.bytes;
    lru_.erase(it->second.lru_pos);
    residents_.erase(it);
    return true;
}

std::shared_ptr<const core::PreparedMatrix>
MatrixRegistry::get(const std::string& name)
{
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = residents_.find(name);
    if (it == residents_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.prepared;
}

bool MatrixRegistry::evict(const std::string& name)
{
    const std::lock_guard<std::mutex> lock(mu_);
    const bool present = erase_locked(name);
    if (present) {
        ++stats_.evictions;
        if (obs::TraceRecorder* const rec = obs::trace_recorder();
            rec != nullptr)
            rec->instant("registry.evict", "registry", 0);
    }
    return present;
}

std::size_t MatrixRegistry::size() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return residents_.size();
}

std::uint64_t MatrixRegistry::bytes_resident() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return bytes_resident_;
}

RegistryStats MatrixRegistry::stats() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::vector<std::string> MatrixRegistry::resident_names() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return {lru_.begin(), lru_.end()};
}

std::vector<std::pair<std::string, std::shared_ptr<const core::PreparedMatrix>>>
MatrixRegistry::residents_snapshot() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<
        std::pair<std::string, std::shared_ptr<const core::PreparedMatrix>>>
        out;
    out.reserve(residents_.size());
    for (const std::string& name : lru_)
        out.emplace_back(name, residents_.at(name).prepared);
    return out;
}

} // namespace serpens::serve
