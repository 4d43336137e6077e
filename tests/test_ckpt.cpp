#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/store.hpp"
#include "nn/dense.hpp"
#include "nn/misc.hpp"
#include "nn/network.hpp"

namespace swt {
namespace {

/// Every chunk file a disk store keeps under `dir` (see weight_bank.hpp).
std::vector<std::filesystem::path> chunk_files(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir / "chunks"))
    out.push_back(entry.path());
  return out;
}

Checkpoint sample_checkpoint() {
  Checkpoint ckpt;
  ckpt.arch = {1, 0, 2};
  ckpt.score = 0.875;
  ckpt.tensors.push_back({"d0/W", Tensor(Shape{2, 3}, {1, 2, 3, 4, 5, 6})});
  ckpt.tensors.push_back({"d0/b", Tensor(Shape{3}, {-1, 0, 1})});
  return ckpt;
}

TEST(Checkpoint, SerializeDeserializeRoundTrip) {
  const Checkpoint original = sample_checkpoint();
  const auto bytes = serialize(original);
  const Checkpoint restored = deserialize(bytes);
  EXPECT_EQ(restored.arch, original.arch);
  EXPECT_DOUBLE_EQ(restored.score, original.score);
  ASSERT_EQ(restored.tensors.size(), 2u);
  EXPECT_EQ(restored.tensors[0].name, "d0/W");
  EXPECT_EQ(restored.tensors[0].value, original.tensors[0].value);
  EXPECT_EQ(restored.tensors[1].value, original.tensors[1].value);
}

TEST(Checkpoint, EmptyCheckpointRoundTrips) {
  Checkpoint empty;
  const Checkpoint restored = deserialize(serialize(empty));
  EXPECT_TRUE(restored.arch.empty());
  EXPECT_TRUE(restored.tensors.empty());
}

TEST(Checkpoint, CorruptionIsDetected) {
  auto bytes = serialize(sample_checkpoint());
  // Flip one payload byte somewhere in the middle.
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

TEST(Checkpoint, TruncationIsDetected) {
  auto bytes = serialize(sample_checkpoint());
  bytes.resize(bytes.size() - 5);
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

TEST(Checkpoint, BadMagicIsDetected) {
  auto bytes = serialize(sample_checkpoint());
  bytes[0] = std::byte{0x00};
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

TEST(Checkpoint, PayloadBytesCountsFloats) {
  const Checkpoint ckpt = sample_checkpoint();
  EXPECT_EQ(ckpt.payload_bytes(), (6 + 3) * sizeof(float));
}

TEST(Checkpoint, FromNetworkSnapshotsParamsInOrder) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("a", 2, 3));
  layers.push_back(std::make_unique<Dense>("b", 3, 1));
  Sequential net(std::move(layers));
  Rng rng(1);
  net.init(rng);
  const Checkpoint ckpt = Checkpoint::from_network(net, {0, 1}, 0.5);
  ASSERT_EQ(ckpt.tensors.size(), 4u);
  EXPECT_EQ(ckpt.tensors[0].name, "a/W");
  EXPECT_EQ(ckpt.tensors[1].name, "a/b");
  EXPECT_EQ(ckpt.tensors[2].name, "b/W");
  EXPECT_EQ(ckpt.tensors[3].name, "b/b");
  // Snapshot is a copy, not a view.
  net.params()[0].value->fill(0.0f);
  EXPECT_NE(ckpt.tensors[0].value.sum_squares(), 0.0);
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char data[] = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Store, MemoryPutGetRoundTrip) {
  CheckpointStore store;
  const Checkpoint ckpt = sample_checkpoint();
  const IoStats put_stats = store.put("k1", ckpt);
  EXPECT_GT(put_stats.bytes, 0u);
  EXPECT_GT(put_stats.cost_seconds, 0.0);
  auto [restored, get_stats] = store.get("k1");
  EXPECT_EQ(restored.arch, ckpt.arch);
  EXPECT_EQ(get_stats.bytes, put_stats.bytes);
  EXPECT_TRUE(store.contains("k1"));
  EXPECT_FALSE(store.contains("k2"));
  EXPECT_EQ(store.count(), 1u);
}

TEST(Store, UnknownKeyThrows) {
  CheckpointStore store;
  EXPECT_THROW((void)store.get("nope"), std::out_of_range);
}

TEST(Store, OverwriteReplacesPayload) {
  CheckpointStore store;
  Checkpoint a = sample_checkpoint();
  const IoStats first = store.put("k", a);
  a.score = 0.1;
  const IoStats second = store.put("k", a);
  EXPECT_EQ(store.count(), 1u);
  EXPECT_DOUBLE_EQ(store.get("k").first.score, 0.1);
  // Both puts are accounted.
  EXPECT_EQ(store.total_bytes_written(), first.bytes + second.bytes);
}

TEST(Store, DiskBackendPersistsToFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_test";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  const Checkpoint ckpt = sample_checkpoint();
  store.put("model-1", ckpt);
  EXPECT_TRUE(std::filesystem::exists(dir / "manifests" / "model-1.swtm"));
  EXPECT_EQ(chunk_files(dir).size(), ckpt.tensors.size());
  auto [restored, stats] = store.get("model-1");
  EXPECT_EQ(restored.tensors[0].value, ckpt.tensors[0].value);
  std::filesystem::remove_all(dir);
}

TEST(Store, TryGetMatchesGetOnHitAndIsEmptyOnMiss) {
  CheckpointStore store;
  const Checkpoint ckpt = sample_checkpoint();
  store.put("k", ckpt);
  const auto hit = store.try_get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first.arch, ckpt.arch);
  EXPECT_EQ(hit->second.bytes, store.get("k").second.bytes);
  EXPECT_FALSE(store.try_get("absent").has_value());
}

TEST(Store, DiskTruncationMakesGetThrowAndTryGetEmpty) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_trunc";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  store.put("victim", sample_checkpoint());
  const auto path = chunk_files(dir).front();
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
  EXPECT_TRUE(store.contains("victim"));  // the manifest still exists...
  EXPECT_THROW((void)store.get("victim"), std::runtime_error);
  EXPECT_FALSE(store.try_get("victim").has_value());  // ...but is unreadable
  std::filesystem::remove_all(dir);
}

TEST(Store, DiskBitFlipMakesGetThrowAndTryGetEmpty) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_flip";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  store.put("victim", sample_checkpoint());
  const auto path = chunk_files(dir).front();
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)store.get("victim"), std::runtime_error);
  EXPECT_FALSE(store.try_get("victim").has_value());
  std::filesystem::remove_all(dir);
}

TEST(Store, DiskBackendRequiresDirectory) {
  EXPECT_THROW(CheckpointStore(CheckpointStore::Backend::kDisk, {}),
               std::invalid_argument);
}

TEST(Store, CostModelIsAffineInSize) {
  PfsCostModel model{.write_latency_s = 0.1,
                     .write_bandwidth_bps = 1000.0,
                     .read_latency_s = 0.2,
                     .read_bandwidth_bps = 500.0};
  EXPECT_DOUBLE_EQ(model.write_cost(0), 0.1);
  EXPECT_DOUBLE_EQ(model.write_cost(2000), 0.1 + 2.0);
  EXPECT_DOUBLE_EQ(model.read_cost(1000), 0.2 + 2.0);
}

TEST(Store, TotalBytesWrittenAccumulates) {
  CheckpointStore store;
  const Checkpoint ckpt = sample_checkpoint();
  const auto s1 = store.put("a", ckpt);
  const auto s2 = store.put("b", ckpt);
  EXPECT_EQ(store.total_bytes_written(), s1.bytes + s2.bytes);
}

TEST(Store, OverwriteDoesNotDoubleCountLiveBytes) {
  // Regression: put() on an existing key used to grow the live footprint as
  // if both payloads were still stored.  The cumulative traffic meters keep
  // counting every put; live_bytes() must track only what is held now.
  CheckpointStore store;
  const Checkpoint ckpt = sample_checkpoint();
  const auto s1 = store.put("k", ckpt);
  const std::size_t live = store.live_bytes();
  EXPECT_GT(live, 0u);
  const auto s2 = store.put("k", ckpt);
  EXPECT_EQ(store.total_bytes_written(), s1.bytes + s2.bytes);  // cumulative
  EXPECT_EQ(store.live_bytes(), live);                          // one checkpoint
  EXPECT_TRUE(store.remove("k"));
  EXPECT_EQ(store.live_bytes(), 0u);
  EXPECT_EQ(store.total_bytes_written(), s1.bytes + s2.bytes);  // not retracted
}

TEST(Store, DiskLiveBytesTracksOverwriteAndRemove) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_live";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  Checkpoint other = sample_checkpoint();
  other.tensors[0].value.fill(7.0f);  // distinct content: its own chunk
  store.put("k", sample_checkpoint());
  const std::size_t one = store.live_bytes();
  store.put("other", other);
  store.put("k", sample_checkpoint());
  const std::size_t two = store.live_bytes();
  EXPECT_GT(two, one);  // two live keys
  store.remove("other");
  EXPECT_EQ(store.live_bytes(), one);
  std::filesystem::remove_all(dir);
}

TEST(Store, BlobPriceIsTheFullSerializedSize) {
  // Without bank pricing every put and get is charged the full blob, as if
  // each checkpoint were its own PFS file — dedup inside the bank does not
  // discount a second put of the same content.
  for (CompressionKind kind :
       {CompressionKind::kNone, CompressionKind::kFp16, CompressionKind::kQuant8}) {
    CheckpointStore store(CheckpointStore::Backend::kMemory, {}, {}, kind);
    const Checkpoint ckpt = sample_checkpoint();
    const std::size_t blob = serialize(ckpt, kind).size();
    EXPECT_EQ(store.put("a", ckpt).bytes, blob) << to_string(kind);
    EXPECT_EQ(store.put("b", ckpt).bytes, blob) << to_string(kind);
    EXPECT_EQ(store.get("b").second.bytes, blob) << to_string(kind);
    EXPECT_FALSE(store.bank_pricing());
  }
}

TEST(Store, BudgetBoundsTheStoreWithoutBankPricing) {
  // The byte budget bounds the one store whatever the price: a 1-byte cap
  // evicts every chunk, so the key stays known but reads as a miss.
  CheckpointStore store(CheckpointStore::Backend::kMemory, {}, {},
                        CompressionKind::kNone, BankConfig{.byte_budget = 1});
  store.put("k", sample_checkpoint());
  EXPECT_TRUE(store.contains("k"));
  EXPECT_FALSE(store.try_get("k").has_value());
  EXPECT_THROW((void)store.get("k"), std::runtime_error);
}

TEST(Store, NetworkRoundTripThroughStore) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d", 4, 2));
  Sequential net(std::move(layers));
  Rng rng(5);
  net.init(rng);
  CheckpointStore store;
  store.put("net", Checkpoint::from_network(net, {1}, 0.9));
  const Checkpoint back = store.get("net").first;
  EXPECT_EQ(back.tensors[0].value, *net.params()[0].value);
  EXPECT_DOUBLE_EQ(back.score, 0.9);
}

class CorruptionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CorruptionSweep, AnySingleByteFlipIsCaught) {
  auto bytes = serialize(sample_checkpoint());
  const std::size_t pos = GetParam() % bytes.size();
  bytes[pos] ^= std::byte{0xFF};
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Positions, CorruptionSweep,
                         ::testing::Values(0, 1, 4, 9, 17, 33, 64, 101, 1000));

// Crash-consistent disk-store behaviour (DESIGN.md "Durability contract").

TEST(Store, DiskReopenAdoptsExistingBlobs) {
  // A resumed run re-creates the store over the same directory; blobs the
  // crashed process persisted must be visible without re-putting them.
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_reopen";
  std::filesystem::remove_all(dir);
  const Checkpoint ckpt = sample_checkpoint();
  {
    CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
    store.put("survivor-1", ckpt);
    store.put("survivor-2", ckpt);
  }
  CheckpointStore reopened(CheckpointStore::Backend::kDisk, dir);
  EXPECT_EQ(reopened.count(), 2u);
  EXPECT_TRUE(reopened.contains("survivor-1"));
  EXPECT_EQ(reopened.get("survivor-2").first.arch, ckpt.arch);
  std::filesystem::remove_all(dir);
}

TEST(Store, DiskReopenSweepsTmpDebris) {
  // A writer killed mid-put leaves only the ".tmp" staging sibling; reopen
  // deletes it and does not surface a phantom key.
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_debris";
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
    store.put("good", sample_checkpoint());
  }
  {
    std::ofstream out(dir / "manifests" / "torn.swtm.tmp", std::ios::binary);
    out << "half-written manifest";
  }
  CheckpointStore reopened(CheckpointStore::Backend::kDisk, dir);
  EXPECT_EQ(reopened.count(), 1u);
  EXPECT_FALSE(reopened.contains("torn"));
  EXPECT_FALSE(std::filesystem::exists(dir / "manifests" / "torn.swtm.tmp"));
  std::filesystem::remove_all(dir);
}

TEST(Store, DiskPutLeavesNoStagingFileBehind) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_atomic";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  store.put("k", sample_checkpoint());
  store.put("k", sample_checkpoint());  // overwrite goes through the same path
  EXPECT_TRUE(std::filesystem::exists(dir / "manifests" / "k.swtm"));
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  std::filesystem::remove_all(dir);
}

TEST(Store, RemoveDeletesBlobAndToleratesDebris) {
  const auto dir = std::filesystem::temp_directory_path() / "swtnas_store_remove";
  std::filesystem::remove_all(dir);
  CheckpointStore store(CheckpointStore::Backend::kDisk, dir);
  store.put("k", sample_checkpoint());
  const auto manifest = dir / "manifests" / "k.swtm";
  {
    std::ofstream out(manifest.string() + ".tmp", std::ios::binary);
    out << "leftover";
  }
  EXPECT_TRUE(store.remove("k"));
  EXPECT_FALSE(store.contains("k"));
  EXPECT_FALSE(std::filesystem::exists(manifest));
  EXPECT_FALSE(std::filesystem::exists(manifest.string() + ".tmp"));
  EXPECT_TRUE(chunk_files(dir).empty());  // zero-ref chunks go with the key
  EXPECT_FALSE(store.remove("k"));  // second remove: nothing left
  std::filesystem::remove_all(dir);
}

TEST(Store, MemoryRemoveRoundTrip) {
  CheckpointStore store;
  store.put("k", sample_checkpoint());
  EXPECT_TRUE(store.remove("k"));
  EXPECT_FALSE(store.contains("k"));
  EXPECT_FALSE(store.remove("absent"));
}

}  // namespace
}  // namespace swt
