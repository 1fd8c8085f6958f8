#include "src/query/batched_diprs.h"

#include "src/query/batched_execution.h"

namespace alaya {

Status ExecuteKvGroupJobs(std::span<KvGroupAttentionJob> jobs, ThreadPool* pool,
                          std::vector<Status>* per_job) {
  return ExecuteJobBatch(jobs, pool, per_job, [](KvGroupAttentionJob& job) {
    if (job.session == nullptr) {
      return Status::InvalidArgument("incomplete kv group attention job");
    }
    return job.session->AttendKvGroup(job.layer, job.kv_head, job.q, job.out, job.stats);
  });
}

}  // namespace alaya
