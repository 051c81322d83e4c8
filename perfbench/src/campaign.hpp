#ifndef PERFBENCH_CAMPAIGN_HPP
#define PERFBENCH_CAMPAIGN_HPP

/// \file campaign.hpp
/// The benchmark's inputs and the operations every workload is built from:
/// the six-field synthetic campaign, packing one time step to band through
/// an ArchiveFileWriter, reading an archive back with its correctness
/// checks, and a closed loop of serving clients over a ReaderPool.

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "archive/archive_file.hpp"
#include "data/datasets.hpp"
#include "ndarray/ndarray.hpp"
#include "serve/reader_pool.hpp"
#include "util/status.hpp"

namespace perfbench {

inline constexpr double kTargetRatio = 10.0;
inline constexpr double kEpsilon = 0.1;

/// Threads of every role (pack workers, read threads, serving clients):
/// four, or fewer when the machine has fewer cores.
unsigned role_threads();

/// The six campaign fields (fixed generator streams).
std::vector<fraz::data::FieldSpec> campaign_fields();

/// Time step \p step of every campaign field, scaled by 1 + k·2^-23 with k in
/// [64, 1088) drawn from \p seed.  Every nonzero value moves by 64 to 1088
/// ulps, far below any bound the tuner tries, while zeros and runs of equal
/// values stay as they are: every seed gives distinct inputs with the same
/// structure, ratio curve and search cost.  Other generator streams would
/// change the fields' structure (plume placement) and with it what a run
/// measures.
std::vector<fraz::NdArray> generate_step(const std::vector<fraz::data::FieldSpec>& fields,
                                         int step, std::uint64_t seed);

std::size_t raw_bytes(const std::vector<fraz::NdArray>& step);

/// Writer configuration: \p backend at ρt = 10, ε = 0.1, auto chunking.
fraz::archive::ArchiveWriteConfig write_config(const std::string& backend, unsigned workers);

struct PackOutcome {
  fraz::archive::ArchiveWriteResult result;
  double wall_s = 0;                ///< begin() through finish()
  std::uint64_t hash = 0;           ///< of the archive file's bytes
  std::size_t file_bytes = 0;       ///< size of the archive file
  std::vector<double> tuned_bounds; ///< per chunk, write order
};

/// Pack one time step as one multi-field archive at \p path.  Spans:
/// archive.pack around the whole build, archive.push / archive.close /
/// archive.finish around the FieldSession calls.
fraz::Result<PackOutcome> pack_step(fraz::archive::ArchiveFileWriter& writer,
                                    const std::string& path,
                                    const std::vector<fraz::data::FieldSpec>& fields,
                                    const std::vector<fraz::NdArray>& step);

struct ReadBack {
  std::vector<double> set_seconds;    ///< wall of each read_all over every field
  std::vector<fraz::NdArray> decoded; ///< per field, from the last repeat
  std::size_t reads = 0;              ///< read_all calls attempted
  std::size_t read_errors = 0;
  std::size_t bound_violations = 0;   ///< values outside their chunk's manifest bound
  std::size_t mismatched_repeats = 0; ///< repeats that decoded different bytes
  double psnr_db = 0;                 ///< mean over fields
};

/// Read every field of the archive at \p path \p repeats times with
/// read_all(\p threads) (span archive.read_all per call), then check the
/// decoded values against \p originals and each chunk's manifest bound.
ReadBack read_back(const std::string& path, const std::vector<fraz::NdArray>& originals,
                   unsigned threads, int repeats);

/// One chunk of a served archive and where its planes sit in the reference.
struct ChunkRef {
  std::size_t field = 0;
  std::size_t first_plane = 0;
  std::size_t planes = 0;
  std::size_t offset_bytes = 0;  ///< into the field's decoded array
  std::size_t bytes = 0;
};

std::vector<ChunkRef> chunk_refs(const fraz::serve::ReaderPool& pool);

struct ServeStats {
  std::vector<double> latencies_us;  ///< one per request, every client
  std::size_t requests = 0;
  std::size_t errors = 0;
  std::size_t mismatches = 0;        ///< responses unequal to the reference
  double qps = 0;                    ///< Σ over clients of requests / serving time
  fraz::serve::ReaderPool::Stats pool_delta;
};

/// Picks the next chunk (index into the ChunkRef list) of client \p client.
using ChunkPicker = std::function<std::size_t(unsigned client, std::uint64_t request,
                                              std::mt19937_64& rng)>;

/// Closed loop: \p clients threads, each with its own ReaderHandle, issue
/// chunk-extent read_range windows until \p seconds pass or each has sent
/// \p max_per_client requests (0 = no cap).  Each response is compared with
/// \p reference after its latency is taken; the comparison time is left out
/// of the client's serving time.  Span serve.request per request.
ServeStats serve_closed_loop(const std::shared_ptr<fraz::serve::ReaderPool>& pool,
                             const std::vector<ChunkRef>& chunks,
                             const std::vector<fraz::NdArray>& reference, unsigned clients,
                             double seconds, std::uint64_t max_per_client,
                             std::uint64_t seed, const ChunkPicker& picker);

double median(std::vector<double> values);
/// Nearest-rank percentile, \p q in [0, 1].
double percentile(std::vector<double> values, double q);
double peak_rss_mb();
std::uint64_t file_hash(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_CAMPAIGN_HPP
