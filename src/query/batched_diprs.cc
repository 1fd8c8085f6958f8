#include "src/query/batched_diprs.h"

namespace alaya {

void ExecuteKvGroupJobs(std::span<KvGroupAttentionJob> jobs, ThreadPool* pool,
                        std::vector<Status>* per_job) {
  per_job->assign(jobs.size(), Status::Ok());
  if (jobs.empty()) return;
  if (pool == nullptr) pool = &ThreadPool::Global();
  pool->ParallelFor(0, jobs.size(), [&](size_t i) {
    const KvGroupAttentionJob& job = jobs[i];
    (*per_job)[i] =
        job.session == nullptr
            ? Status::InvalidArgument("incomplete kv group attention job")
            : job.session->AttendKvGroup(job.layer, job.kv_head, job.q, job.out,
                                         job.stats);
  });
}

}  // namespace alaya
