#ifndef FRAZ_UTIL_LFU_INDEX_HPP
#define FRAZ_UTIL_LFU_INDEX_HPP

/// \file lfu_index.hpp
/// The eviction policy of serve::ChunkCache: a cost-budgeted
/// least-frequently-used index with dynamic aging.
///
/// Every entry has a cost (a chunk's decoded bytes) and a rank: the
/// index's *floor* at admission plus the entry's hits since then.
/// Insertion evicts the lowest rank first, and among equal ranks the least
/// recently touched (inserted or hit), so entries of equal use still
/// leave in LRU order.  Each eviction raises the floor to the victim's rank,
/// so new entries start level with what was just dropped, and an entry that
/// stops being hit leaves once the floor reaches its rank.  Hit counts are
/// not capped, so that takes as many evictions as the entry had hits: the
/// policy pays off when popularity stays put over the cache's lifetime.
///
/// Why hits and not hits per cost: a cached entry saves one recompute per
/// hit, and a chunk's decode time grows with its decoded bytes, so the
/// saving per cached byte is already proportional to the hit count.
///
/// Eviction depends only on the sequence of insert/touch calls — never on
/// wall-clock time — so a replayed sequence evicts identically.  The index
/// is not thread-safe; each cache guards it with its own mutex.
///
/// Entries of one rank form a group, least recently touched first, and the
/// groups sit in rank order, so every operation but erase_if is O(1).  Every
/// resident entry brings one group node with it, which keeps a spare group
/// at hand whenever a hit opens a new rank: a hit only splices list nodes
/// and never allocates.  Nodes enter and leave through a caller-owned
/// `Nodes`, so the caller can build and free them outside its lock.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

namespace fraz {

template <class Key, class Value, class Hash = std::hash<Key>>
class LfuIndex {
public:
  struct Entry {
    Key key;
    Value value;
    std::size_t cost = 0;
  };
  /// The resident entries of one rank, least recently touched first.
  struct Group {
    std::uint64_t rank = 0;
    std::list<Entry> entries;
  };
  /// Entries and group nodes moving into or out of the index.
  struct Nodes {
    std::list<Entry> entries;
    std::list<Group> groups;
  };

  /// \param budget total cost the index may hold.
  explicit LfuIndex(std::size_t budget) noexcept : budget_(budget) {}

  /// The nodes of one entry for insert(), so a caller can allocate them
  /// before taking its lock.
  static Nodes stage(Key key, Value value, std::size_t cost) {
    Nodes staged;
    staged.entries.push_back(Entry{std::move(key), std::move(value), cost});
    staged.groups.emplace_back();
    return staged;
  }

  /// A hit: the entry's value, its rank raised by one and made the most
  /// recently touched; nullptr when \p key is absent.  Never allocates.
  Value* touch(const Key& key) noexcept {
    const auto found = index_.find(key);
    if (found == index_.end()) return nullptr;
    Slot& slot = found->second;
    const GroupIt from = slot.group;
    const GroupIt next = std::next(from);
    const std::uint64_t rank = from->rank + 1;
    if (next != groups_.end() && next->rank == rank) {
      move_to(slot, next);
      release_if_empty(from);
    } else if (from->entries.size() == 1) {
      from->rank = rank;  // alone in its rank: the group moves up with it
    } else {
      // `from` holds two entries or more, so fewer groups than entries are
      // in use and a spare node is free.
      groups_.splice(next, spare_, spare_.begin());
      const GroupIt to = std::prev(next);
      to->rank = rank;
      move_to(slot, to);
    }
    return &slot.entry->value;
  }

  /// True when \p key is resident.  A pure peek: no rank changes.
  bool contains(const Key& key) const noexcept { return index_.count(key) != 0; }

  /// Admit the one entry of \p staged at the floor as the most recently
  /// touched, replacing any entry with the same key, after evicting
  /// lowest-ranked entries until its cost fits the budget.  The replaced and
  /// evicted entries, each with one group node, are moved into \p dropped.
  /// Returns the number evicted (a replaced entry is not an eviction).  An
  /// entry whose cost exceeds the budget empties the index and is admitted
  /// alone; callers size entries below the budget.
  std::size_t insert(Nodes staged, Nodes& dropped) {
    // The only step that can throw comes first, before any state changes.
    const auto [slot, fresh] = index_.try_emplace(staged.entries.front().key);
    spare_.splice(spare_.end(), staged.groups);
    if (!fresh) remove(slot->second, dropped);
    const std::size_t cost = staged.entries.front().cost;
    std::size_t evicted = 0;
    while (!groups_.empty() && resident_ + cost > budget_) {
      floor_ = groups_.front().rank;
      const auto victim = index_.find(groups_.front().entries.front().key);
      remove(victim->second, dropped);
      index_.erase(victim);
      ++evicted;
    }
    // Every resident rank is at least the floor, so the floor's group, if
    // any, is the first.
    if (groups_.empty() || groups_.front().rank != floor_) {
      groups_.splice(groups_.begin(), spare_, spare_.begin());
      groups_.front().rank = floor_;
    }
    std::list<Entry>& lowest = groups_.front().entries;
    lowest.splice(lowest.end(), staged.entries);
    slot->second = Slot{groups_.begin(), std::prev(lowest.end())};
    resident_ += cost;
    return evicted;
  }

  /// Move every entry whose key satisfies \p pred into \p dropped.  Not an
  /// eviction: the floor does not move.
  template <class Pred>
  void erase_if(Pred pred, Nodes& dropped) {
    for (GroupIt group = groups_.begin(); group != groups_.end();) {
      const GroupIt next_group = std::next(group);
      for (EntryIt entry = group->entries.begin(); entry != group->entries.end();) {
        const EntryIt next_entry = std::next(entry);
        if (pred(entry->key)) {
          index_.erase(entry->key);
          remove(Slot{group, entry}, dropped);
        }
        entry = next_entry;
      }
      group = next_group;
    }
  }

  /// Move every entry into \p dropped and restart from an empty index.
  void clear(Nodes& dropped) noexcept {
    for (Group& group : groups_) dropped.entries.splice(dropped.entries.end(), group.entries);
    dropped.groups.splice(dropped.groups.end(), groups_);
    dropped.groups.splice(dropped.groups.end(), spare_);
    index_.clear();
    resident_ = 0;
    floor_ = 0;
  }

  std::size_t size() const noexcept { return index_.size(); }
  /// Summed cost of the resident entries; never above the budget.
  std::size_t cost() const noexcept { return resident_; }
  std::size_t budget() const noexcept { return budget_; }
  /// Rank of the last victim; every admission starts here.
  std::uint64_t floor() const noexcept { return floor_; }

private:
  using GroupIt = typename std::list<Group>::iterator;
  using EntryIt = typename std::list<Entry>::iterator;
  struct Slot {
    GroupIt group;
    EntryIt entry;
  };

  /// Make the entry at \p slot the most recently touched of \p to.
  void move_to(Slot& slot, GroupIt to) noexcept {
    to->entries.splice(to->entries.end(), slot.group->entries, slot.entry);
    slot.group = to;
  }

  void release_if_empty(GroupIt group) noexcept {
    if (group->entries.empty()) spare_.splice(spare_.end(), groups_, group);
  }

  /// Move the entry at \p slot, and the group node it brought, into
  /// \p dropped.  Its key stays in index_ for the caller to erase or reuse.
  void remove(const Slot& slot, Nodes& dropped) noexcept {
    resident_ -= slot.entry->cost;
    dropped.entries.splice(dropped.entries.end(), slot.group->entries, slot.entry);
    release_if_empty(slot.group);
    dropped.groups.splice(dropped.groups.end(), spare_, spare_.begin());
  }

  /// Non-empty groups in rank order.
  std::list<Group> groups_;
  /// Empty group nodes: with groups_, exactly one node per resident entry.
  std::list<Group> spare_;
  std::unordered_map<Key, Slot, Hash> index_;
  std::size_t resident_ = 0;
  const std::size_t budget_;
  std::uint64_t floor_ = 0;
};

}  // namespace fraz

#endif  // FRAZ_UTIL_LFU_INDEX_HPP
