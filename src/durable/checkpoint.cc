#include "durable/checkpoint.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.h"

namespace omega::durable {

namespace {

// "OmGaLog" + version nibble. A stray image (or an entry body misread as a
// header) fails the magic check before any checksum work.
constexpr uint64_t kEntryMagic = 0x4F6D47614C6F6701ull;

// magic + stamp + type + payload_bytes + checksum, packed little-endian.
constexpr size_t kHeaderBytes = 8 + 8 + 4 + 4 + 8;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t EntryChecksum(uint64_t stamp, uint32_t type, uint32_t payload_bytes,
                       const uint8_t* payload) {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, reinterpret_cast<const uint8_t*>(&stamp), sizeof(stamp));
  h = FnvMix(h, reinterpret_cast<const uint8_t*>(&type), sizeof(type));
  h = FnvMix(h, reinterpret_cast<const uint8_t*>(&payload_bytes),
             sizeof(payload_bytes));
  return FnvMix(h, payload, payload_bytes);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

CheckpointStore::CheckpointStore(memsim::MemorySystem* ms,
                                 CheckpointOptions options)
    : ms_(ms), options_(options), pool_(ms, buffer::BufferManager::Options{}) {}

Result<CkptCosts> CheckpointStore::Append(uint32_t type, const void* payload,
                                          size_t bytes) {
  return AppendImpl(type, payload, bytes, /*torn=*/false);
}

Result<CkptCosts> CheckpointStore::AppendTorn(uint32_t type,
                                              const void* payload,
                                              size_t bytes) {
  return AppendImpl(type, payload, bytes, /*torn=*/true);
}

Result<CkptCosts> CheckpointStore::AppendImpl(uint32_t type,
                                              const void* payload,
                                              size_t bytes, bool torn) {
  CkptCosts costs;
  // Reserve the entry's persistent footprint up front (PR6 BufferManager):
  // a full device rejects the append before any bytes are charged.
  auto pin = pool_.Pin(
      buffer::PageKey{options_.placement.tier, options_.placement.socket,
                      next_stamp_},
      kHeaderBytes + bytes);
  if (!pin.ok()) return pin.status();

  // Header dance, charge side: stream the payload, order it with a persist
  // barrier, then publish the stamped header and order again. Each chunk is
  // one fault draw with bounded retries (FaultRetryPolicy{}); a chunk that
  // exhausts them fails the append with its final fault un-bucketed
  // (caller's to account).
  memsim::SimClock clock;
  auto charged_write = [&](size_t write_bytes) -> Status {
    const memsim::MemorySystem::RetryOutcome w = ms_->RetryAccessSeconds(
        options_.placement, /*cpu_socket=*/0, memsim::MemOp::kWrite,
        memsim::Pattern::kSequential, write_bytes, /*accesses=*/1,
        options_.threads, memsim::kFaultStreamDurable, fault_site_++,
        memsim::FaultRetryPolicy{}, &clock);
    if (!w.delivered()) return w.Error("checkpoint write");
    clock.Advance(w.seconds);
    return Status::OK();
  };

  for (size_t off = 0; off < bytes; off += options_.chunk_bytes) {
    OMEGA_RETURN_NOT_OK(
        charged_write(std::min(options_.chunk_bytes, bytes - off)));
  }
  clock.Advance(ms_->PersistBarrierSeconds(options_.placement.tier));
  OMEGA_RETURN_NOT_OK(charged_write(kHeaderBytes));
  clock.Advance(ms_->PersistBarrierSeconds(options_.placement.tier));
  costs.seconds = clock.seconds();
  costs.barriers += 2;

  // Host image, [header][payload] per entry. A torn append models the crash
  // between the payload stream and the final header persist: the header made
  // it, the payload's tail did not — Scan must fail the checksum.
  const uint64_t stamp = next_stamp_++;
  const uint8_t* p = static_cast<const uint8_t*>(payload);
  const uint64_t checksum =
      EntryChecksum(stamp, type, static_cast<uint32_t>(bytes), p);
  PutU64(&image_, kEntryMagic);
  PutU64(&image_, stamp);
  PutU32(&image_, type);
  PutU32(&image_, static_cast<uint32_t>(bytes));
  PutU64(&image_, checksum);
  entry_offsets_.push_back(image_.size() - kHeaderBytes);
  const size_t written = torn ? bytes / 2 : bytes;
  image_.insert(image_.end(), p, p + written);

  entry_pins_.push_back(std::move(pin).value());
  ++entry_count_;
  costs.entries = 1;
  costs.bytes = kHeaderBytes + bytes;
  return costs;
}

void CheckpointStore::CorruptTailChecksum() {
  if (entry_offsets_.empty()) return;
  const size_t header = entry_offsets_.back();
  const uint32_t payload_bytes = GetU32(image_.data() + header + 20);
  const size_t target = payload_bytes > 0
                            ? header + kHeaderBytes  // first payload byte
                            : header + 24;           // checksum field itself
  if (target < image_.size()) image_[target] ^= 0xFF;
}

CheckpointStore::ScanResult CheckpointStore::Scan() const {
  ScanResult result;
  size_t offset = 0;
  uint64_t expected_stamp = 0;
  while (offset + kHeaderBytes <= image_.size()) {
    const uint8_t* h = image_.data() + offset;
    const uint64_t magic = GetU64(h);
    const uint64_t stamp = GetU64(h + 8);
    const uint32_t type = GetU32(h + 16);
    const uint32_t payload_bytes = GetU32(h + 20);
    const uint64_t checksum = GetU64(h + 24);
    if (magic != kEntryMagic || stamp != expected_stamp) break;
    if (offset + kHeaderBytes + payload_bytes > image_.size()) break;
    const uint8_t* payload = h + kHeaderBytes;
    if (EntryChecksum(stamp, type, payload_bytes, payload) != checksum) break;
    LogEntry entry;
    entry.stamp = stamp;
    entry.type = type;
    entry.payload.assign(payload, payload + payload_bytes);
    result.entries.push_back(std::move(entry));
    ++expected_stamp;
    offset += kHeaderBytes + payload_bytes;
  }
  result.torn_tail = offset != image_.size();
  return result;
}

CheckpointStore::ScanResult CheckpointStore::ChargedScan(CkptCosts* costs) {
  ScanResult result = Scan();
  if (costs != nullptr && !image_.empty()) {
    const size_t accesses =
        (image_.size() + options_.chunk_bytes - 1) / options_.chunk_bytes;
    costs->seconds += ms_->AccessSeconds(
        options_.placement, /*cpu_socket=*/0, memsim::MemOp::kRead,
        memsim::Pattern::kSequential, image_.size(), accesses,
        options_.threads);
    // Checksum verification touches every byte once.
    costs->seconds += ms_->cost_model().ComputeSeconds(image_.size());
    costs->bytes += image_.size();
    costs->entries += result.entries.size();
  }
  return result;
}

size_t CheckpointStore::TruncateToValidPrefix() {
  const ScanResult scan = Scan();
  if (!scan.torn_tail) return 0;
  size_t prefix_bytes = 0;
  for (const LogEntry& e : scan.entries) {
    prefix_bytes += kHeaderBytes + e.payload.size();
  }
  image_.resize(prefix_bytes);
  const size_t dropped = entry_pins_.size() - scan.entries.size();
  for (size_t i = scan.entries.size(); i < entry_pins_.size(); ++i) {
    const buffer::PageKey key = entry_pins_[i].key();
    entry_pins_[i].Release();
    (void)pool_.Evict(key);  // frees the dropped entry's PM reservation
  }
  entry_pins_.resize(scan.entries.size());
  entry_offsets_.resize(scan.entries.size());
  entry_count_ = scan.entries.size();
  next_stamp_ = entry_count_;
  return dropped;
}

Status CheckpointStore::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open checkpoint file " + path);
  out.write(reinterpret_cast<const char*>(image_.data()),
            static_cast<std::streamsize>(image_.size()));
  if (!out) return Status::IOError("short write to checkpoint file " + path);
  return Status::OK();
}

Status CheckpointStore::LoadFromFile(const std::string& path) {
  // A directory opens as a stream whose tellg() is INT64_MAX: reject
  // anything but a regular file, and any size the device could not hold,
  // before allocating the image.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::IOError("checkpoint path is not a regular file: " + path);
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open checkpoint file " + path);
  const std::streamsize size = in.tellg();
  if (size < 0 ||
      static_cast<uint64_t>(size) > ms_->CapacityBytes(options_.placement.tier)) {
    return Status::IOError("checkpoint file " + path +
                           " has no size that fits its device");
  }
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IOError("short read from checkpoint file " + path);
  }
  // Adopt the image, then rebuild bookkeeping from its valid prefix. A torn
  // tail is kept in the image (Scan/Truncate handle it) but gets no pin.
  for (buffer::PinHandle& pin : entry_pins_) {
    const buffer::PageKey key = pin.key();
    pin.Release();
    (void)pool_.Evict(key);
  }
  entry_pins_.clear();
  entry_offsets_.clear();
  image_ = std::move(bytes);
  const ScanResult scan = Scan();
  size_t offset = 0;
  for (const LogEntry& e : scan.entries) {
    auto pin = pool_.Pin(
        buffer::PageKey{options_.placement.tier, options_.placement.socket,
                        e.stamp},
        kHeaderBytes + e.payload.size());
    if (!pin.ok()) return pin.status();
    entry_pins_.push_back(std::move(pin).value());
    entry_offsets_.push_back(offset);
    offset += kHeaderBytes + e.payload.size();
  }
  entry_count_ = scan.entries.size();
  next_stamp_ = entry_count_;
  return Status::OK();
}

namespace {

void PutMatrix(std::vector<uint8_t>* out, const std::string& tag,
               const linalg::DenseMatrix& m) {
  PutU32(out, static_cast<uint32_t>(tag.size()));
  out->insert(out->end(), tag.begin(), tag.end());
  PutU64(out, m.rows());
  PutU64(out, m.cols());
  const uint8_t* data = reinterpret_cast<const uint8_t*>(m.data());
  out->insert(out->end(), data, data + m.bytes());
}

Status GetMatrix(const std::vector<uint8_t>& payload, std::string* tag,
                 linalg::DenseMatrix* m) {
  size_t off = 0;
  // `off` never passes payload.size(), so the subtraction cannot wrap.
  auto need = [&](uint64_t n) {
    return n <= payload.size() - off
               ? Status::OK()
               : Status::IOError("corrupt checkpoint matrix entry");
  };
  OMEGA_RETURN_NOT_OK(need(4));
  const uint32_t tag_len = GetU32(payload.data() + off);
  off += 4;
  OMEGA_RETURN_NOT_OK(need(tag_len));
  tag->assign(reinterpret_cast<const char*>(payload.data() + off), tag_len);
  off += tag_len;
  OMEGA_RETURN_NOT_OK(need(16));
  const uint64_t rows = GetU64(payload.data() + off);
  const uint64_t cols = GetU64(payload.data() + off + 8);
  off += 16;
  // Check the declared shape against the payload before allocating: a
  // rows * cols * 4 that overflows (or just exceeds what is left) is corrupt.
  const uint64_t floats_left = (payload.size() - off) / sizeof(float);
  if (rows != 0 && cols > floats_left / rows) {
    return Status::IOError("corrupt checkpoint matrix entry");
  }
  linalg::DenseMatrix out(rows, cols);
  std::memcpy(out.data(), payload.data() + off, out.bytes());
  *m = std::move(out);
  return Status::OK();
}

}  // namespace

namespace {

Result<CkptCosts> WriteSnapshotImpl(CheckpointStore* store,
                                    const CheckpointSnapshot& snapshot,
                                    bool torn) {
  CkptCosts costs;
  const uint64_t meta_stamp = store->entry_count();

  std::vector<uint8_t> meta;
  PutU32(&meta, snapshot.stage);
  PutU64(&meta, snapshot.next_term);
  PutU32(&meta, static_cast<uint32_t>(snapshot.matrices.size()));
  PutU64(&meta, snapshot.words.size());
  for (uint64_t w : snapshot.words) PutU64(&meta, w);
  const bool meta_is_last = torn && snapshot.matrices.empty();
  OMEGA_ASSIGN_OR_RETURN(
      CkptCosts c,
      meta_is_last
          ? store->AppendTorn(static_cast<uint32_t>(EntryType::kMeta),
                              meta.data(), meta.size())
          : store->Append(static_cast<uint32_t>(EntryType::kMeta), meta.data(),
                          meta.size()));
  costs += c;

  for (size_t i = 0; i < snapshot.matrices.size(); ++i) {
    const auto& [tag, matrix] = snapshot.matrices[i];
    std::vector<uint8_t> body;
    PutMatrix(&body, tag, matrix);
    const bool is_last = torn && i + 1 == snapshot.matrices.size();
    OMEGA_ASSIGN_OR_RETURN(
        c, is_last ? store->AppendTorn(
                         static_cast<uint32_t>(EntryType::kMatrix), body.data(),
                         body.size())
                   : store->Append(static_cast<uint32_t>(EntryType::kMatrix),
                                   body.data(), body.size()));
    costs += c;
  }
  if (torn) return costs;  // the crash beat the commit marker

  std::vector<uint8_t> commit;
  PutU64(&commit, meta_stamp);
  OMEGA_ASSIGN_OR_RETURN(
      c, store->Append(static_cast<uint32_t>(EntryType::kCommit),
                       commit.data(), commit.size()));
  costs += c;
  return costs;
}

}  // namespace

Result<CkptCosts> WriteSnapshot(CheckpointStore* store,
                                const CheckpointSnapshot& snapshot) {
  return WriteSnapshotImpl(store, snapshot, /*torn=*/false);
}

Result<CkptCosts> WriteSnapshotTorn(CheckpointStore* store,
                                    const CheckpointSnapshot& snapshot) {
  return WriteSnapshotImpl(store, snapshot, /*torn=*/true);
}

Result<CheckpointSnapshot> ReadLastSnapshot(CheckpointStore* store,
                                            CkptCosts* costs) {
  const CheckpointStore::ScanResult scan =
      costs != nullptr ? store->ChargedScan(costs) : store->Scan();
  const auto& entries = scan.entries;
  for (size_t i = entries.size(); i-- > 0;) {
    if (entries[i].type != static_cast<uint32_t>(EntryType::kCommit)) continue;
    if (entries[i].payload.size() != 8) continue;
    const uint64_t meta_stamp = GetU64(entries[i].payload.data());
    if (meta_stamp >= i) continue;
    const LogEntry& meta = entries[meta_stamp];
    if (meta.type != static_cast<uint32_t>(EntryType::kMeta)) continue;
    if (meta.payload.size() < 24) continue;

    CheckpointSnapshot snapshot;
    size_t off = 0;
    snapshot.stage = GetU32(meta.payload.data() + off);
    off += 4;
    snapshot.next_term = GetU64(meta.payload.data() + off);
    off += 8;
    const uint32_t matrix_count = GetU32(meta.payload.data() + off);
    off += 4;
    const uint64_t word_count = GetU64(meta.payload.data() + off);
    off += 8;
    if (word_count > (meta.payload.size() - off) / 8) continue;
    for (uint64_t w = 0; w < word_count; ++w) {
      snapshot.words.push_back(GetU64(meta.payload.data() + off + w * 8));
    }
    if (meta_stamp + 1 + matrix_count > i) continue;
    bool valid = true;
    for (uint32_t m = 0; m < matrix_count && valid; ++m) {
      const LogEntry& e = entries[meta_stamp + 1 + m];
      if (e.type != static_cast<uint32_t>(EntryType::kMatrix)) {
        valid = false;
        break;
      }
      std::string tag;
      linalg::DenseMatrix matrix;
      valid = GetMatrix(e.payload, &tag, &matrix).ok();
      if (valid) snapshot.matrices.emplace_back(tag, std::move(matrix));
    }
    if (valid) return snapshot;
  }
  return Status::NotFound("no committed checkpoint in store");
}

namespace {
constexpr const char kKilledPrefix[] = "simulated kill at ";
}

Status KilledError(const std::string& where) {
  return Status::IOError(kKilledPrefix + where);
}

bool IsKilledError(const Status& status) {
  return status.IsIOError() &&
         status.message().rfind(kKilledPrefix, 0) == 0;
}

}  // namespace omega::durable
