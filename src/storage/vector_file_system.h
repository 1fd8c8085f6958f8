// The vector file system (§7.3): manages one vector file per attention head
// per layer, all sharing one purpose-built buffer manager.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/index/graph_common.h"
#include "src/index/vector_set.h"
#include "src/storage/vector_file.h"

namespace alaya {

class VectorFileSystem {
 public:
  struct Options {
    BufferManager::Options buffer;
    /// Back files with MemIoBackend (tests) instead of POSIX files.
    bool in_memory = false;
    /// Directory for POSIX-backed files (created if missing).
    std::string dir = "/tmp/alayadb";
    VectorFileOptions file;
  };

  explicit VectorFileSystem(const Options& options);

  /// Creates (or truncates) the file `name`, e.g. "layer3_head1".
  Result<VectorFile*> CreateFile(const std::string& name);
  /// Opens an existing POSIX-backed file.
  Result<VectorFile*> OpenFile(const std::string& name);
  /// Returns an already-created/opened file, or nullptr.
  VectorFile* GetFile(const std::string& name);

  BufferManager& buffer_manager() { return buffer_; }

  /// Persists a head's key vectors and its graph adjacency.
  Status PersistHead(const std::string& name, VectorSetView keys,
                     const AdjacencyGraph* graph);

  /// Loads a persisted head back into memory structures.
  Status LoadHead(const std::string& name, VectorSet* keys, AdjacencyGraph* graph);

  size_t num_files() const;

  /// Names of every file this VFS can serve — on-disk ".vf" files in `dir`
  /// for POSIX-backed systems (whether or not they are open yet), the live
  /// file map for in-memory ones. Warm start scans this for "*_manifest"
  /// entries to re-register persisted contexts after a restart.
  std::vector<std::string> ListNames() const;

 private:
  std::string PathFor(const std::string& name) const;
  Result<std::unique_ptr<IoBackend>> MakeBackend(const std::string& name, bool create);

  Options options_;
  BufferManager buffer_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<VectorFile>> files_;
  uint64_t next_file_id_ = 1;
};

}  // namespace alaya
