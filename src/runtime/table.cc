#include "src/runtime/table.h"

#include <algorithm>
#include <cassert>

namespace nettrails {
namespace runtime {

namespace {

/// Hash of `fields` projected onto `positions`, computed in place.
/// Bit-identical to ValueListHash{}(Table::Project(positions, fields))
/// without materializing the projection — the projected elements are not
/// contiguous, so this replays AddValueRange's layout (count, then element
/// digests) by position.
uint64_t ProjectionHash(const std::vector<int>& positions,
                        const ValueList& fields) {
  Hasher h;
  h.AddU64(positions.size());
  for (int p : positions) {
    assert(static_cast<size_t>(p) < fields.size());
    h.AddU64(fields[static_cast<size_t>(p)].Hash());
  }
  return h.Digest();
}

}  // namespace

Table::Table(ndlog::TableInfo info) : info_(std::move(info)) {}

ValueList Table::KeyOf(const ValueList& fields) const {
  if (info_.keys.empty()) return fields;
  ValueList key;
  key.reserve(info_.keys.size());
  for (int k : info_.keys) {
    assert(static_cast<size_t>(k) < fields.size());
    key.push_back(fields[static_cast<size_t>(k)]);
  }
  return key;
}

uint64_t Table::KeyHashOf(const ValueList& fields) const {
  return info_.keys.empty() ? ValueListHash{}(fields)
                            : ProjectionHash(info_.keys, fields);
}

bool Table::SlotKeyMatchesProjection(const Slot& slot,
                                     const ValueList& fields) const {
  if (info_.keys.empty()) return ValueListEq{}(slot.row.fields, fields);
  const ValueList& key = slot.key;
  assert(key.size() == info_.keys.size());
  for (size_t i = 0; i < key.size(); ++i) {
    if (key[i] != fields[static_cast<size_t>(info_.keys[i])]) return false;
  }
  return true;
}

ValueList Table::Project(const std::vector<int>& positions,
                         const ValueList& fields) {
  ValueList key;
  key.reserve(positions.size());
  for (int p : positions) {
    assert(static_cast<size_t>(p) < fields.size());
    key.push_back(fields[static_cast<size_t>(p)]);
  }
  return key;
}

void Table::Plan(const ValueList& fields, int64_t mult, bool is_delete,
                 ActionBuffer* out) {
  assert(mult > 0);
  // Each append copy-assigns into the slot's retained buffer.
  auto emit = [out](const ValueList& f, int64_t m, bool del) {
    TableAction& a = out->Append();
    a.fields = f;
    a.mult = m;
    a.is_delete = del;
  };
  const Row* row = FindByKeyOf(fields);
  if (is_delete) {
    if (row == nullptr || row->fields != fields) {
      ++spurious_deletes_;
      return;
    }
    emit(fields, std::min(mult, row->count), /*del=*/true);
    return;
  }
  // Key replacement: retract the displaced tuple entirely, then insert.
  if (row != nullptr && row->fields != fields) {
    emit(row->fields, row->count, /*del=*/true);
  }
  emit(fields, mult, /*del=*/false);
}

uint32_t Table::FindSlotIdx(uint64_t hash, const ValueList& fields) const {
  const uint32_t* head = primary_.Find(hash);
  if (head == nullptr) return kNil;
  for (uint32_t i = *head - 1; i != kNil; i = slots_[i].next) {
    if (SlotKeyMatchesProjection(slots_[i], fields)) return i;
  }
  return kNil;
}

void Table::DecrementAt(uint32_t slot_idx, int64_t mult) {
  Row& row = slots_[slot_idx].row;
  row.count -= mult;
  if (row.count <= 0) EraseSlot(slot_idx);
}

void Table::EraseSlot(uint32_t slot_idx) {
  Slot& s = slots_[slot_idx];
  assert(s.live);
  UnindexRow(slot_idx);
  // Unlink from the same-hash chain (almost always a single-slot chain).
  uint32_t* head = primary_.Find(s.key_hash);
  assert(head != nullptr && *head != 0);
  if (*head - 1 == slot_idx) {
    if (s.next == kNil) {
      primary_.Erase(s.key_hash);
    } else {
      *head = s.next + 1;
    }
  } else {
    uint32_t prev = *head - 1;
    while (slots_[prev].next != slot_idx) prev = slots_[prev].next;
    slots_[prev].next = s.next;
  }
  // The recycled slot keeps its row.fields / key buffers — the next
  // InsertNewRow copy-assigns into them. The generation bump is what
  // invalidates outstanding handles.
  s.next = kNil;
  s.live = false;
  ++s.gen;
  s.row.count = 0;
  free_slots_.push_back(slot_idx);
  --live_count_;
  ordered_view_valid_ = false;
}

void Table::InsertNewRow(uint64_t hash, const ValueList& fields,
                         int64_t mult) {
  uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.row.fields = fields;  // copy-assign reuses the recycled slot's buffers
  s.row.count = mult;
  if (!info_.keys.empty()) {
    s.key.clear();
    for (int k : info_.keys) s.key.push_back(fields[static_cast<size_t>(k)]);
  }
  s.key_hash = hash;
  uint32_t& head = primary_[hash];
  s.next = head == 0 ? kNil : head - 1;
  head = idx + 1;
  s.live = true;
  ++live_count_;
  IndexRow(idx);
  ordered_view_valid_ = false;
}

void Table::Apply(const TableAction& action) {
  uint64_t hash = KeyHashOf(action.fields);
  uint32_t i = FindSlotIdx(hash, action.fields);
  if (action.is_delete) {
    if (i == kNil || slots_[i].row.fields != action.fields) return;
    DecrementAt(i, action.mult);
    return;
  }
  if (i != kNil) {
    // Plan issues the displacement delete first, so by the time an
    // insert lands here the stored fields match (or the row was erased).
    assert(slots_[i].row.fields == action.fields);
    slots_[i].row.count += action.mult;
    return;
  }
  InsertNewRow(hash, action.fields, action.mult);
}

const std::vector<Table::RowHandle>& Table::OrderedView() const {
  if (!ordered_view_valid_) {
    ++ordered_view_rebuilds_;
    ordered_view_.clear();
    ordered_view_.reserve(live_count_);
    for (uint32_t i = 0; i < static_cast<uint32_t>(slots_.size()); ++i) {
      if (slots_[i].live) ordered_view_.push_back({i, slots_[i].gen});
    }
    // Sort by key projection: exactly the old ordered-map order. Keys are
    // unique within a table (key replacement guarantees it), so the sort is
    // a total order and the result is independent of the slab layout.
    if (KeyIsAllFields()) {
      std::sort(ordered_view_.begin(), ordered_view_.end(),
                [this](RowHandle a, RowHandle b) {
                  return ValueListLess{}(slots_[a.idx].row.fields,
                                         slots_[b.idx].row.fields);
                });
    } else {
      std::sort(ordered_view_.begin(), ordered_view_.end(),
                [this](RowHandle a, RowHandle b) {
                  const ValueList& fa = slots_[a.idx].row.fields;
                  const ValueList& fb = slots_[b.idx].row.fields;
                  for (int k : info_.keys) {
                    size_t i = static_cast<size_t>(k);
                    int c = fa[i].Compare(fb[i]);
                    if (c != 0) return c < 0;
                  }
                  return false;
                });
    }
    ordered_view_valid_ = true;
  }
  return ordered_view_;
}

int Table::AddIndex(std::vector<int> positions) {
  assert(std::is_sorted(positions.begin(), positions.end()));
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].positions == positions) return static_cast<int>(i);
  }
  indexes_.emplace_back();
  SecondaryIndex& idx = indexes_.back();
  idx.positions = std::move(positions);
  // Existing rows are indexed in deterministic (sorted) order so bucket
  // contents — and therefore probe iteration order — do not depend on the
  // hash layout.
  for (RowHandle h : OrderedView()) IndexRowInto(&idx, h.idx);
  return static_cast<int>(indexes_.size()) - 1;
}

const std::vector<Table::RowHandle>* Table::Probe(int index_id,
                                                  const ValueList& key) const {
  const SecondaryIndex& idx = indexes_[static_cast<size_t>(index_id)];
  const uint32_t* head = idx.heads.Find(ValueListHash{}(key));
  return head == nullptr ? nullptr : &idx.buckets[*head - 1];
}

void Table::IndexRowInto(SecondaryIndex* idx, uint32_t slot_idx) {
  const Slot& s = slots_[slot_idx];
  uint32_t& head = idx->heads[ProjectionHash(idx->positions, s.row.fields)];
  if (head == 0) {
    if (!idx->free_buckets.empty()) {
      head = idx->free_buckets.back() + 1;
      idx->free_buckets.pop_back();
    } else {
      head = static_cast<uint32_t>(idx->buckets.size()) + 1;
      idx->buckets.emplace_back();
    }
  }
  idx->buckets[head - 1].push_back({slot_idx, s.gen});
}

void Table::IndexRow(uint32_t slot_idx) {
  for (SecondaryIndex& idx : indexes_) IndexRowInto(&idx, slot_idx);
}

void Table::UnindexRow(uint32_t slot_idx) {
  const Slot& s = slots_[slot_idx];
  const RowHandle h{slot_idx, s.gen};
  for (SecondaryIndex& idx : indexes_) {
    uint64_t ph = ProjectionHash(idx.positions, s.row.fields);
    uint32_t* head = idx.heads.Find(ph);
    assert(head != nullptr && *head != 0);
    std::vector<RowHandle>& bucket = idx.buckets[*head - 1];
    // Ordered erase keeps probe results in insertion order (deterministic
    // join evaluation); planner-selected buckets are selective, so linear
    // cost is fine.
    bucket.erase(std::find(bucket.begin(), bucket.end(), h));
    if (bucket.empty()) {
      // The freed bucket keeps its vector capacity for its next tenant.
      idx.free_buckets.push_back(*head - 1);
      idx.heads.Erase(ph);
    }
  }
}

const Table::Row* Table::FindByKeyOf(const ValueList& fields) const {
  uint32_t i = FindSlotIdx(KeyHashOf(fields), fields);
  return i == kNil ? nullptr : &slots_[i].row;
}

const Table::Row* Table::FindByKey(const ValueList& key) const {
  const uint32_t* head = primary_.Find(ValueListHash{}(key));
  if (head == nullptr) return nullptr;
  for (uint32_t i = *head - 1; i != kNil; i = slots_[i].next) {
    if (ValueListEq{}(SlotKey(slots_[i]), key)) return &slots_[i].row;
  }
  return nullptr;
}

int64_t Table::CountOf(const ValueList& fields) const {
  const Row* row = FindByKeyOf(fields);
  return (row != nullptr && row->fields == fields) ? row->count : 0;
}

std::vector<Tuple> Table::Contents() const {
  std::vector<Tuple> out;
  out.reserve(live_count_);
  for (RowHandle h : OrderedView()) {
    out.emplace_back(info_.name, slots_[h.idx].row.fields);
  }
  return out;
}

}  // namespace runtime
}  // namespace nettrails
