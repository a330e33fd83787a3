// FTL metadata journal (crash-restart recovery).
//
// A simulated append-only journal region holding the FTL's durable metadata:
// L2P updates, trims, tiredness-level / page-state changes, block retirement,
// logical-space extensions and mDisk lifecycle records. The journal models a
// dedicated metadata region (NVRAM or a reserved SLC stripe) — appends cost
// no simulated latency and no data-flash wear, so attaching it never perturbs
// an existing run's outputs.
//
// Durability contract:
//  * Records up to `synced_count()` are durable and survive any power loss.
//  * Records past it (the unsynced tail) form the bounded torn-write window:
//    an injected torn write at power loss discards Uniform[1, unsynced]
//    trailing records. A tear can never cross the sync barrier.
//  * `Ftl::SyncJournal()` advances the barrier; the FTL auto-syncs every
//    `FtlConfig::journal_max_unsynced` appends and on every host Flush().
//  * At capacity the FTL compacts: the journal is rewritten as a minimal
//    description of current state (one kMap per mapped lpo, one kPageState
//    per non-pristine page, at most two records per mDisk ever created) and
//    the result is fully synced — compaction is itself a durability barrier.
//
// Position vs records:
//  * The position — size, sync barrier, append/sync/compaction counts and the
//    number of kMapFlush records in the unsynced tail — is always tracked.
//    It is what `Ftl::StateDigest`, the sync and compaction policy and the
//    journal metrics read, so it evolves identically in both modes below.
//  * The records themselves are stored only when the journal keeps them
//    (`FtlConfig::crash_journal`, default true). Only a power loss ever
//    reads them back, so a device that cannot lose power skips storing
//    them: `FleetSim` turns records off for a device with no FaultInjector
//    in a fleet without rack power-loss events; clusters, crash_sweep and
//    the tests keep them. On a record-less journal, `records()` and
//    `TearTail()` abort with a message in every build.
//
// Storage: records sit in a std::deque, i.e. in fixed-size blocks. An append
// never copies the journal, and a compaction frees the blocks past the
// compacted snapshot instead of keeping (or regrowing) one buffer sized for
// the largest journal seen.
#ifndef SALAMANDER_FTL_JOURNAL_H_
#define SALAMANDER_FTL_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <utility>
#include <vector>

namespace salamander {

enum class JournalRecordType : uint8_t {
  kMap = 0,      // a = lpo, b = physical slot (flush success)
  kTrim,         // a = lpo
  kPageState,    // a = fpage, b = PageState ordinal, c = tiredness level
  kBlockRetire,  // a = block (erase-status failure: permanently retired)
  kExtend,       // a = oPages appended to the logical space
  kMdiskCreate,  // a = id, b = first_lpo, c = size, d = level | regen << 8
  kMdiskDrain,   // a = id (grace period opened)
  kMdiskDrop,    // a = id, b = forced (decommission completed)
  kMapFlush,     // a = map page index, b = physical slot of the flushed
                 // L2P map-page image (bounded-L2P mode only). Appended
                 // *unsynced* after the map-page program — the torn-map-page
                 // crash surface: tearing it rolls the map page back to its
                 // previous flash image, which replay patches forward from
                 // the (already durable) delta records.
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kMap;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;

  bool operator==(const JournalRecord&) const = default;
};

class FtlJournal {
 public:
  // Sink for a compacted snapshot: stores each record when the journal that
  // made it keeps records, else only counts it.
  class Snapshot {
   public:
    void Add(const JournalRecord& record) {
      if (keep_records_) {
        records_.push_back(record);
      }
      ++size_;
    }

   private:
    friend class FtlJournal;
    explicit Snapshot(bool keep_records) : keep_records_(keep_records) {}

    bool keep_records_;
    std::deque<JournalRecord> records_;
    uint64_t size_ = 0;
  };

  explicit FtlJournal(uint64_t capacity_records, bool keep_records = true)
      : capacity_(capacity_records), keep_records_(keep_records) {}

  void Append(const JournalRecord& record) {
    if (keep_records_) {
      records_.push_back(record);
    }
    ++size_;
    ++appends_;
    if (record.type == JournalRecordType::kMapFlush) {
      ++unsynced_map_flushes_;
    }
  }

  // Marks everything appended so far durable.
  void Sync() {
    if (synced_count_ != size_) {
      synced_count_ = size_;
      unsynced_map_flushes_ = 0;
      ++syncs_;
    }
  }

  // Discards up to `n` records from the unsynced tail (torn write at power
  // loss); returns the records actually torn so the caller can mark the
  // affected logical pages rolled back. Never crosses the sync barrier.
  std::vector<JournalRecord> TearTail(uint64_t n) {
    RequireRecords("FtlJournal::TearTail");
    const uint64_t torn = n < unsynced() ? n : unsynced();
    std::vector<JournalRecord> out(records_.end() - torn, records_.end());
    records_.resize(records_.size() - torn);
    size_ -= torn;
    torn_records_ += torn;
    for (const JournalRecord& r : out) {
      unsynced_map_flushes_ -= r.type == JournalRecordType::kMapFlush;
    }
    return out;
  }

  // An empty snapshot in this journal's mode, for ReplaceWith().
  Snapshot NewSnapshot() const { return Snapshot(keep_records_); }

  // Replaces the contents with a compacted snapshot; the result is durable.
  // The previous records' storage is released.
  void ReplaceWith(Snapshot snapshot) {
    records_ = std::move(snapshot.records_);
    size_ = snapshot.size_;
    synced_count_ = size_;
    unsynced_map_flushes_ = 0;
    ++compactions_;
  }

  // Aborts, naming `op`, unless this journal keeps its records.
  void RequireRecords(const char* op) const {
    if (!keep_records_) {
      std::fprintf(stderr,
                   "%s: the journal keeps no records "
                   "(FtlConfig::crash_journal is false), so this device "
                   "cannot lose power or replay\n",
                   op);
      std::abort();
    }
  }

  bool keeps_records() const { return keep_records_; }
  const std::deque<JournalRecord>& records() const {
    RequireRecords("FtlJournal::records");
    return records_;
  }
  uint64_t size() const { return size_; }
  uint64_t synced_count() const { return synced_count_; }
  uint64_t unsynced() const { return size_ - synced_count_; }
  // kMapFlush records past the sync barrier (a power loss could tear them).
  uint64_t unsynced_map_flushes() const { return unsynced_map_flushes_; }
  uint64_t capacity() const { return capacity_; }
  bool AtCapacity() const { return size_ >= capacity_; }

  uint64_t appends() const { return appends_; }
  uint64_t syncs() const { return syncs_; }
  uint64_t compactions() const { return compactions_; }
  uint64_t torn_records() const { return torn_records_; }

 private:
  uint64_t capacity_;
  bool keep_records_;
  std::deque<JournalRecord> records_;  // empty unless keep_records_
  uint64_t size_ = 0;
  uint64_t synced_count_ = 0;
  uint64_t unsynced_map_flushes_ = 0;
  uint64_t appends_ = 0;
  uint64_t syncs_ = 0;
  uint64_t compactions_ = 0;
  uint64_t torn_records_ = 0;
};

}  // namespace salamander

#endif  // SALAMANDER_FTL_JOURNAL_H_
