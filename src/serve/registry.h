// Resident-matrix registry: the serving layer's device-memory model.
//
// A production Serpens deployment keeps several preprocessed matrices
// resident (the host-side decode-once expansion of each packed HBM image;
// the padded image itself is rebuilt only on demand) and serves SpMV
// requests against them by name. MatrixRegistry owns those residents:
//
//   - admit(name, coo)     encode + decode exactly once, up front — a hit
//                          on a resident is O(1) and pays neither again
//   - admit_image(name, img)  the preprocessed-offline path (--load-image):
//                          skips encode, still decodes once up front
//   - get(name)            shared ownership of the resident; bumps LRU
//
// Every resident is charged PreparedMatrix::memory_footprint_bytes()
// against `resident_budget_bytes` (0 = unlimited); admission evicts
// least-recently-used residents until the newcomer fits, and throws if it
// can never fit. Residents are handed out as shared_ptr, so eviction only
// drops the registry's reference — requests already holding the matrix
// finish correctly and the memory is reclaimed when the last one drains.
//
// Thread-safe: all members may be called concurrently (the serving
// front-end admits and resolves from many client threads).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/accelerator.h"
#include "core/config.h"

namespace serpens::serve {

struct RegistryStats {
    std::uint64_t admissions = 0;  // admit/admit_image calls that succeeded
    std::uint64_t encodes = 0;     // admissions that paid the encode stage
    // Residents dropped to make budget room for a newcomer, plus explicit
    // evict() calls. Same-name replacement is NOT an eviction — the name
    // stays resident — it is counted separately so capacity-pressure
    // dashboards read true.
    std::uint64_t evictions = 0;
    std::uint64_t replacements = 0;  // same-name re-admissions
    std::uint64_t hits = 0;        // get() calls that found the name
    std::uint64_t misses = 0;      // get() calls that did not
};

class MatrixRegistry {
public:
    // The config supplies the architecture (for encode), the thread knobs
    // (encode_threads/sim_threads parallelize admission), and
    // resident_budget_bytes.
    explicit MatrixRegistry(core::SerpensConfig config);

    // Encode + decode `m` and install it under `name`, evicting LRU
    // residents as needed. An existing resident of the same name is
    // replaced (counted as a replacement). Throws std::invalid_argument if
    // the matrix alone exceeds the budget, CapacityError if it exceeds the
    // architecture's row capacity.
    std::shared_ptr<const core::PreparedMatrix>
    admit(const std::string& name, const sparse::CooMatrix& m);

    // Install an already-encoded image (the preprocessed-offline workflow).
    // Pays only the decode; same budget/eviction/replace semantics.
    std::shared_ptr<const core::PreparedMatrix>
    admit_image(const std::string& name, encode::SerpensImage image);

    // Resolve a resident and mark it most-recently used. Null if absent
    // (evicted or never admitted).
    std::shared_ptr<const core::PreparedMatrix> get(const std::string& name);

    // Drop one resident by name (true if it was present).
    bool evict(const std::string& name);

    std::size_t size() const;
    std::uint64_t bytes_resident() const;
    std::uint64_t budget_bytes() const { return budget_bytes_; }
    RegistryStats stats() const;

    // Resident names, most-recently used first (for tests and --json).
    std::vector<std::string> resident_names() const;

    // Residents (name, prepared), most-recently used first, WITHOUT
    // bumping LRU order the way get() would — metrics scrapes must not
    // perturb eviction behavior.
    std::vector<
        std::pair<std::string, std::shared_ptr<const core::PreparedMatrix>>>
    residents_snapshot() const;

    const core::Accelerator& accelerator() const { return accelerator_; }

private:
    struct Resident {
        std::shared_ptr<const core::PreparedMatrix> prepared;
        std::uint64_t bytes = 0;
        std::list<std::string>::iterator lru_pos;
    };

    // Install an already-decoded prepared matrix under `name` (both admit
    // paths funnel here). Caller computed `bytes` outside the lock;
    // `paid_encode` records whether this admission ran the encode stage
    // (counted only once the budget check passes).
    std::shared_ptr<const core::PreparedMatrix>
    install(const std::string& name,
            std::shared_ptr<const core::PreparedMatrix> prepared,
            std::uint64_t bytes, bool paid_encode);
    // Drop `name` if resident; true when something was dropped. Stats-
    // neutral on purpose: each call site charges the counter that names
    // its reason (eviction vs replacement).
    bool erase_locked(const std::string& name);

    core::Accelerator accelerator_;
    std::uint64_t budget_bytes_ = 0;
    unsigned decode_threads_ = 1;

    mutable std::mutex mu_;
    std::unordered_map<std::string, Resident> residents_;
    std::list<std::string> lru_;  // front = most recently used
    std::uint64_t bytes_resident_ = 0;
    RegistryStats stats_;
};

} // namespace serpens::serve
