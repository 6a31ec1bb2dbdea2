#include "src/streams.h"

#include <algorithm>

namespace perfbench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t SplitMix::Below(uint64_t n) {
  const uint64_t limit = ~uint64_t{0} - (~uint64_t{0} % n);
  uint64_t x = Next();
  while (x >= limit) x = Next();
  return x % n;
}

double SplitMix::Unit() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

namespace {

void Shuffle(std::vector<size_t>* xs, SplitMix* rng) {
  for (size_t i = xs->size(); i > 1; --i) {
    std::swap((*xs)[i - 1], (*xs)[rng->Below(i)]);
  }
}

/// Endless seeded deck: every pass deals each card once, in a fresh order.
class Deck {
 public:
  Deck(size_t n, SplitMix* rng) : rng_(rng) {
    for (size_t i = 0; i < n; ++i) cards_.push_back(i);
    Shuffle(&cards_, rng_);
  }
  size_t Deal() {
    if (pos_ == cards_.size()) {
      Shuffle(&cards_, rng_);
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  SplitMix* rng_;
  std::vector<size_t> cards_;
  size_t pos_ = 0;
};

}  // namespace

std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  SplitMix rng(seed);
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = i;
  Shuffle(&out, &rng);
  return out;
}

std::vector<ChurnEvent> MakeChurnStream(size_t num_links, uint64_t seed,
                                        size_t n) {
  SplitMix rng(seed ^ 0x636875726eull);  // "churn"
  Deck deck(num_links, &rng);
  std::vector<size_t> down;
  std::vector<size_t> owed;  // cards dealt while their link was down
  std::vector<ChurnEvent> out;
  out.reserve(n);
  auto is_down = [&](size_t l) {
    return std::find(down.begin(), down.end(), l) != down.end();
  };
  auto deal_up_link = [&] {
    // A card whose link is still down is owed and dealt again as soon as
    // the link is back up, so every link fails about equally often.
    for (size_t i = 0; i < owed.size(); ++i) {
      if (!is_down(owed[i])) {
        const size_t l = owed[i];
        owed.erase(owed.begin() + static_cast<std::ptrdiff_t>(i));
        return l;
      }
    }
    for (;;) {
      const size_t l = deck.Deal();
      if (!is_down(l)) return l;
      owed.push_back(l);
    }
  };
  while (out.size() < n) {
    std::vector<ChurnEvent::Kind> allowed;
    if (down.size() < kMaxLinksDown) allowed.push_back(ChurnEvent::Kind::kFail);
    if (!down.empty()) allowed.push_back(ChurnEvent::Kind::kRecover);
    if (down.size() + 2 <= kMaxLinksDown) {
      allowed.push_back(ChurnEvent::Kind::kBurst);
    }
    ChurnEvent ev;
    ev.kind = allowed[rng.Below(allowed.size())];
    if (ev.kind == ChurnEvent::Kind::kRecover) {
      const size_t i = rng.Below(down.size());
      ev.links.push_back(down[i]);
      down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      size_t k = 1;
      if (ev.kind == ChurnEvent::Kind::kBurst) {
        k = 2 + rng.Below(kMaxLinksDown - down.size() - 1);
      }
      for (size_t j = 0; j < k; ++j) {
        ev.links.push_back(deal_up_link());
        down.push_back(ev.links.back());
      }
    }
    out.push_back(std::move(ev));
  }
  return out;
}

QueryStream MakeQueryStream(size_t num_targets, size_t num_links,
                            uint64_t seed, size_t n) {
  SplitMix rng(seed ^ 0x7175657279ull);  // "query"
  const std::vector<size_t> ranking = Permutation(num_targets, 0x686f74);
  // Zipf(1) CDF over ranks: P(rank r) is proportional to 1 / (r + 1).
  std::vector<double> cdf(num_targets);
  double total = 0;
  for (size_t r = 0; r < num_targets; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  Deck deck(num_links, &rng);
  QueryStream out;
  out.queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.Unit() * total;
    size_t rank = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (rank >= num_targets) rank = num_targets - 1;
    QueryOp q;
    q.target = ranking[rank];
    const uint64_t mix = rng.Below(4);
    if (mix < 2) {
      q.kind = QueryKind::kLineage;
    } else {
      q.kind = mix == 2 ? QueryKind::kNodeSet : QueryKind::kDerivCount;
    }
    q.verify = i % kVerifyEvery == kVerifyEvery - 1;
    out.queries.push_back(q);
    if ((i + 1) % kQueriesPerFlap == 0) out.flap_links.push_back(deck.Deal());
  }
  return out;
}

std::string Serialize(const std::vector<ChurnEvent>& events) {
  static const char* const kNames[] = {"fail", "recover", "burst"};
  std::string out;
  for (const ChurnEvent& ev : events) {
    out += kNames[static_cast<int>(ev.kind)];
    for (size_t l : ev.links) out += " " + std::to_string(l);
    out += "\n";
  }
  return out;
}

std::string Serialize(const QueryStream& stream) {
  std::string out;
  for (const QueryOp& q : stream.queries) {
    out += std::to_string(q.target) + " " +
           std::to_string(static_cast<int>(q.kind)) +
           (q.verify ? " v\n" : "\n");
  }
  for (size_t l : stream.flap_links) out += "flap " + std::to_string(l) + "\n";
  return out;
}

}  // namespace perfbench
