#include "cluster/ring.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace timedc::cluster {

std::uint64_t ring_hash(std::uint64_t x) {
  // splitmix64 finalizer: fixed, seedless, identical in every process.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void HashRing::set_members(std::span<const SiteId> members) {
  members_.assign(members.begin(), members.end());
  std::sort(members_.begin(), members_.end(),
            [](SiteId a, SiteId b) { return a.value < b.value; });
  members_.erase(std::unique(members_.begin(), members_.end(),
                             [](SiteId a, SiteId b) {
                               return a.value == b.value;
                             }),
                 members_.end());
  ++epoch_;
  rebuild();
}

bool HashRing::add_member(SiteId site) {
  for (SiteId m : members_) {
    if (m.value == site.value) return false;
  }
  members_.push_back(site);
  std::sort(members_.begin(), members_.end(),
            [](SiteId a, SiteId b) { return a.value < b.value; });
  ++epoch_;
  rebuild();
  return true;
}

bool HashRing::remove_member(SiteId site) {
  const auto it = std::find_if(
      members_.begin(), members_.end(),
      [site](SiteId m) { return m.value == site.value; });
  if (it == members_.end()) return false;
  members_.erase(it);
  ++epoch_;
  rebuild();
  return true;
}

void HashRing::rebuild() {
  points_.clear();
  points_.reserve(members_.size() * kVnodes);
  for (SiteId m : members_) {
    for (std::size_t v = 0; v < kVnodes; ++v) {
      // Mix the vnode index into the high half so consecutive site ids do
      // not produce correlated point sequences.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(v) << 32) | m.value;
      points_.push_back({ring_hash(key), m});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.site.value < b.site.value;
            });
  // At least as many buckets as points (and two, so the shift stays < 64).
  const std::size_t n = std::max<std::size_t>(points_.size(), 2);
  const auto log2 = static_cast<unsigned>(std::bit_width(n - 1));
  bucket_shift_ = 64 - log2;
  bucket_start_.assign(std::size_t{1} << log2, 0);
  std::uint32_t p = 0;
  for (std::size_t b = 0; b < bucket_start_.size(); ++b) {
    const std::uint64_t floor = static_cast<std::uint64_t>(b) << bucket_shift_;
    while (p < points_.size() && points_[p].hash < floor) ++p;
    bucket_start_[b] = p;
  }
}

SiteId HashRing::owner_of(ObjectId object) const {
  TIMEDC_ASSERT(!points_.empty());
  const std::uint64_t h = ring_hash(object.value);
  // The first point at or after h (std::lower_bound's answer) lies in h's
  // bucket or is the first point of a later one: scan from the bucket's
  // first point; past the last point, wrap to the first.
  std::size_t i = bucket_start_[h >> bucket_shift_];
  while (i < points_.size() && points_[i].hash < h) ++i;
  return i == points_.size() ? points_.front().site : points_[i].site;
}

}  // namespace timedc::cluster
