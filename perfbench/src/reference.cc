#include "reference.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>

namespace perfbench {

namespace {

using onesql::Timestamp;
using onesql::Value;

constexpr int64_t kMinute = 60 * 1000;

int64_t FloorTo(int64_t t, int64_t step) {
  int64_t q = t / step;
  if (t % step != 0 && t < 0) --q;
  return q * step;
}

Value Time(int64_t ms) { return Value::Time(Timestamp(ms)); }

struct Person {
  std::string name;
  std::string state;
  size_t pos = 0;
};

struct Auction {
  int64_t id = 0;
  int64_t seller = 0;
  int64_t category = 0;
  std::string item;
  size_t pos = 0;
};

struct Bid {
  int64_t t = 0;
  int64_t auction = 0;
  int64_t bidder = 0;
  int64_t price = 0;
  size_t pos = 0;
};

}  // namespace

std::map<std::string, Multiset> NexmarkReference(
    const std::vector<FeedEvent>& feed) {
  // Watermark current at each feed position (the generator advances all
  // three streams together, with no insert in between).
  std::vector<int64_t> wm_at(feed.size());
  int64_t wm = std::numeric_limits<int64_t>::min();
  std::unordered_map<int64_t, Person> persons;
  std::unordered_map<int64_t, Auction> auctions;
  std::vector<Auction> auction_order;
  std::vector<Bid> bids;
  for (size_t i = 0; i < feed.size(); ++i) {
    const FeedEvent& e = feed[i];
    if (e.kind == FeedEvent::Kind::kWatermark) {
      wm = std::max(wm, e.watermark.millis());
      continue;
    }
    wm_at[i] = wm;
    const Row& r = e.row;
    if (e.source == "Person") {
      persons[r[1].AsInt64()] = Person{r[2].AsString(), r[3].AsString(), i};
    } else if (e.source == "Auction") {
      Auction a{r[1].AsInt64(), r[2].AsInt64(), r[3].AsInt64(),
                r[4].AsString(), i};
      auctions[a.id] = a;
      auction_order.push_back(a);
    } else {
      bids.push_back(Bid{r[0].AsTimestamp().millis(), r[1].AsInt64(),
                         r[2].AsInt64(), r[3].AsInt64(), i});
    }
  }
  auto late = [&](int64_t wend, size_t pos) { return wend <= wm_at[pos]; };

  std::map<std::string, Multiset> out;
  auto add = [&](const std::string& q, const Row& row) {
    out[q].push_back(RowKey(row));
  };

  // Q1: every bid, price converted.
  // Q2: bids on auctions whose id is a multiple of 123.
  for (const Bid& b : bids) {
    add("q1", {Time(b.t), Value::Int64(b.auction), Value::Int64(b.bidder),
               Value::Int64(b.price * 908 / 1000)});
    if (b.auction % 123 == 0) {
      add("q2", {Time(b.t), Value::Int64(b.auction), Value::Int64(b.price)});
    }
  }

  // Q3: auctions of category 3 joined with their seller, if from OR.
  for (const Auction& a : auction_order) {
    auto p = persons.find(a.seller);
    if (a.category != 3 || p == persons.end() || p->second.state != "OR") {
      continue;
    }
    add("q3", {Value::String(p->second.name), Value::String(p->second.state),
               Value::Int64(a.id), Value::String(a.item)});
  }

  // Q4: AVG(price) per (10-minute tumbling window end, auction category).
  struct SumCount {
    double sum = 0;
    int64_t count = 0;
  };
  std::map<std::pair<int64_t, int64_t>, SumCount> q4;
  for (const Bid& b : bids) {
    auto a = auctions.find(b.auction);
    if (a == auctions.end()) continue;
    const int64_t wend = FloorTo(b.t, 10 * kMinute) + 10 * kMinute;
    if (late(wend, std::max(b.pos, a->second.pos))) continue;
    SumCount& sc = q4[{wend, a->second.category}];
    sc.sum += static_cast<double>(b.price);
    ++sc.count;
  }
  for (const auto& [key, sc] : q4) {
    add("q4", {Time(key.first), Value::Int64(key.second),
               Value::Double(sc.sum / static_cast<double>(sc.count))});
  }

  // Q5: per 10-minute window hopping by 5 minutes, the auctions with the
  // most bids.
  std::map<int64_t, std::map<int64_t, int64_t>> q5;  // wend -> auction -> n
  for (const Bid& b : bids) {
    const int64_t last_start = FloorTo(b.t, 5 * kMinute);
    for (int64_t start = last_start; start + 10 * kMinute > b.t;
         start -= 5 * kMinute) {
      const int64_t wend = start + 10 * kMinute;
      if (!late(wend, b.pos)) ++q5[wend][b.auction];
    }
  }
  for (const auto& [wend, counts] : q5) {
    int64_t mx = 0;
    for (const auto& [auction, n] : counts) mx = std::max(mx, n);
    for (const auto& [auction, n] : counts) {
      if (n == mx) {
        add("q5", {Time(wend), Value::Int64(auction), Value::Int64(n)});
      }
    }
  }

  // Q7: per 10-minute tumbling window, the bids at the window's maximum.
  std::map<int64_t, int64_t> q7_max;  // wstart -> max price of on-time bids
  for (const Bid& b : bids) {
    const int64_t start = FloorTo(b.t, 10 * kMinute);
    if (late(start + 10 * kMinute, b.pos)) continue;
    auto [it, fresh] = q7_max.emplace(start, b.price);
    if (!fresh) it->second = std::max(it->second, b.price);
  }
  for (const Bid& b : bids) {
    const int64_t start = FloorTo(b.t, 10 * kMinute);
    if (late(start + 10 * kMinute, b.pos)) continue;
    if (q7_max.at(start) != b.price) continue;
    add("q7", {Time(start), Time(start + 10 * kMinute), Time(b.t),
               Value::Int64(b.price), Value::Int64(b.auction)});
  }

  for (const auto& q : NexmarkQueries()) {
    std::sort(out[q.name].begin(), out[q.name].end());
  }
  return out;
}

}  // namespace perfbench
