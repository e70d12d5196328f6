#include "service/cache.hpp"

#include <algorithm>
#include <utility>

#include "core/json.hpp"
#include "core/landscape.hpp"
#include "service/protocol.hpp"

namespace lcl::service {

namespace {

using core::json::escape;

/// FNV-1a over the key picks the shard; the canonical-key alphabet is
/// tiny (hex + separators), so a real mixing hash matters.
std::size_t key_hash(const std::string& key) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace

std::size_t CacheEntry::entry_bytes(const CacheEntry& e) {
  std::size_t bytes = sizeof(CacheEntry);
  bytes += e.key.size();
  bytes += e.classify_body.size();
  bytes += e.cls.rationale.size();
  bytes += e.testing.failure.size();
  // CSR arrays of the witness tree: ids + offsets + both edge endpoints.
  bytes += static_cast<std::size_t>(e.testing.witness.size()) * 16;
  bytes += static_cast<std::size_t>(e.testing.witness.edge_count()) * 16;
  return bytes;
}

ProblemCache::ProblemCache(std::size_t byte_budget, int shards)
    : byte_budget_(byte_budget) {
  const int count = std::max(1, shards);
  shard_budget_ = byte_budget_ / static_cast<std::size_t>(count);
  shards_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ProblemCache::Shard& ProblemCache::shard_for(const std::string& key) {
  return *shards_[key_hash(key) % shards_.size()];
}

std::shared_ptr<const CacheEntry> ProblemCache::lookup(
    const std::string& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  it->second = shard.lru.begin();
  hits_.fetch_add(1, std::memory_order_relaxed);
  return *it->second;
}

std::shared_ptr<const CacheEntry> ProblemCache::insert(
    std::shared_ptr<const CacheEntry> entry) {
  Shard& shard = shard_for(entry->key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(entry->key);
  if (it != shard.index.end()) {
    // A racing compute already inserted this key; the resident entry is
    // identical (classification is deterministic) and wins.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    it->second = shard.lru.begin();
    return *it->second;
  }
  shard.bytes += entry->bytes;
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(shard.lru.front()->key, shard.lru.begin());
  // Trim the tail past this shard's budget slice, but never the entry
  // just inserted — an oversized singleton stays resident until the
  // next insert displaces it.
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    const auto& victim = shard.lru.back();
    shard.bytes -= victim->bytes;
    shard.index.erase(victim->key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return shard.lru.front();
}

std::shared_ptr<const CacheEntry> ProblemCache::get_or_compute(
    const problems::BwTable& table) {
  // Strip before canonicalizing — the classifier does the same, so the
  // key identifies exactly one classification outcome.
  const problems::BwTable stripped = problems::strip_unused_labels(table);
  std::string key = problems::canonical_key(stripped);
  if (auto hit = lookup(key)) return hit;

  // Miss: classify outside any lock (milliseconds for witness-building
  // tables), then insert-if-absent.
  auto entry = std::make_shared<CacheEntry>();
  entry->key = std::move(key);
  entry->canonical = problems::canonical_table(stripped);
  entry->cls = problems::classify_table(stripped);
  entry->testing = problems::tree_testing(entry->canonical);
  entry->classify_body = render_classify_body(entry->key, entry->canonical,
                                              entry->cls, entry->testing);
  entry->bytes = CacheEntry::entry_bytes(*entry);
  return insert(std::move(entry));
}

CacheStats ProblemCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.entries += shard->lru.size();
    s.bytes += shard->bytes;
  }
  return s;
}

std::string render_classify_body(const std::string& key,
                                 const problems::BwTable& canonical,
                                 const problems::Classification& cls,
                                 const problems::TreeTesting& testing) {
  std::string out = "\"ok\":true,\"type\":\"classify\",\"key\":\"";
  out += escape(key);
  out += "\",\"alphabet\":" + std::to_string(canonical.alphabet);
  out += ",\"max_degree\":" + std::to_string(canonical.max_degree);
  out += ",\"predicted\":\"" + problems::to_string(cls.predicted);
  out += "\",\"path_class\":\"" + bw::to_string(cls.path_class);
  out += "\",\"tree_good\":";
  out += cls.tree_good ? "true" : "false";
  out += ",\"testing_good\":";
  out += cls.testing_good ? "true" : "false";
  out += ",\"constant_good\":";
  out += cls.constant_good ? "true" : "false";
  out += ",\"rationale\":\"" + escape(cls.rationale);
  out += "\",\"region\":{\"range\":\"" + escape(cls.region.range);
  out += "\",\"kind\":\"" + core::to_string(cls.region.kind);
  out += "\",\"provenance\":\"" + core::to_string(cls.region.provenance);
  out += "\",\"source\":\"" + escape(cls.region.source);
  out += "\",\"witness\":\"" + escape(cls.region.witness);
  out += "\"},\"reachable_sets\":" + std::to_string(testing.reachable_sets);
  out += ",\"witness_nodes\":" +
         std::to_string(testing.has_witness
                            ? static_cast<std::int64_t>(
                                  testing.witness.size())
                            : 0);
  if (!testing.good) {
    out += ",\"witness_failure\":\"" + escape(testing.failure) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace lcl::service
