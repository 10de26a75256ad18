// ratio_probe — estimate what global deduplication would save on a
// workload before deploying it, and what a per-node (local) design would
// leave on the table.  The Figure 3 methodology as a reusable tool.
//
//   $ ./ratio_probe workload=fio dedupe=0.5 osds=16 chunk_kb=32
//   $ ./ratio_probe workload=sfs load=10
//   $ ./ratio_probe workload=cloud vms=24 chunk_kb=16
//   $ ./ratio_probe workload=vmimages images=10

#include <cstdio>

#include "common/histogram.h"
#include "common/options.h"
#include "dedup/ratio_analyzer.h"
#include "workload/fio_gen.h"
#include "workload/sfs_db.h"
#include "workload/vm_corpus.h"

using namespace gdedup;

namespace {

OsdMap make_map(int osds) {
  OsdMap m;
  for (int i = 0; i < osds; i++) m.add_osd(i, i / 4);
  PoolConfig cfg;
  cfg.name = "probe";
  cfg.pg_num = 4096;
  m.create_pool(cfg);
  return m;
}

void report(RatioAnalyzer& a, uint64_t chunk) {
  const auto g = a.global();
  const auto l = a.local();
  std::printf("\nlogical data:        %s (%u KB chunks)\n",
              format_bytes(static_cast<double>(g.logical_bytes)).c_str(),
              static_cast<unsigned>(chunk / 1024));
  std::printf("global dedup:        %6.2f %%  (unique: %s)\n", g.percent(),
              format_bytes(static_cast<double>(g.unique_bytes)).c_str());
  std::printf("local  dedup:        %6.2f %%  (unique: %s)\n", l.percent(),
              format_bytes(static_cast<double>(l.unique_bytes)).c_str());
  std::printf("global advantage:    %.2fx the savings of a per-OSD design\n",
              l.percent() > 0 ? g.percent() / l.percent() : 0.0);
  std::printf("\nper-OSD placement balance (logical bytes):\n");
  for (const auto& [osd, rep] : a.per_osd()) {
    std::printf("  osd.%-3d %12s  local-unique %s\n", osd,
                format_bytes(static_cast<double>(rep.logical_bytes)).c_str(),
                format_bytes(static_cast<double>(rep.unique_bytes)).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv,
               "workload=fio|sfs|cloud|vmimages osds=<n> chunk_kb=<n>\n"
               "fio: mb=<data MB> dedupe=<0..1>   sfs: load=<1|3|10> mb=<MB>\n"
               "cloud: vms=<n> vm_mb=<MB>         vmimages: images=<n> image_mb=<MB>");
  const std::string workload = opts.get("workload", "fio");
  const int osds = static_cast<int>(opts.get_int("osds", 16));
  const uint64_t chunk = static_cast<uint64_t>(opts.get_int("chunk_kb", 32)) << 10;

  OsdMap map = make_map(osds);
  RatioAnalyzer a(&map, 0, static_cast<uint32_t>(chunk));

  if (workload == "fio") {
    workload::FioConfig cfg;
    cfg.total_bytes = static_cast<uint64_t>(opts.get_int("mb", 64)) << 20;
    cfg.dedupe_ratio = opts.get_double("dedupe", 0.5);
    cfg.block_size = 8192;
    opts.check_unused();
    workload::FioGenerator gen(cfg);
    for (uint64_t i = 0; i < gen.num_blocks(); i++) {
      a.add_object("blk" + std::to_string(i), gen.block(i));
    }
    std::printf("FIO-like stream, dedupe_percentage=%.0f%%",
                cfg.dedupe_ratio * 100);
  } else if (workload == "sfs") {
    workload::SfsDbConfig cfg;
    cfg.load = static_cast<int>(opts.get_int("load", 10));
    cfg.dataset_bytes = static_cast<uint64_t>(opts.get_int("mb", 96)) << 20;
    opts.check_unused();
    workload::SfsDbGenerator gen(cfg);
    const uint64_t ppo = (4 << 20) / cfg.page_size;
    Buffer obj;
    uint64_t idx = 0;
    for (uint64_t i = 0; i < gen.num_pages(); i++) {
      obj = Buffer::concat(obj, gen.dataset_page(i));
      if ((i + 1) % ppo == 0 || i + 1 == gen.num_pages()) {
        a.add_object("db." + std::to_string(idx++), obj);
        obj = Buffer();
      }
    }
    std::printf("SPEC-SFS-2014-DB-like dataset, LOAD=%d", cfg.load);
  } else if (workload == "cloud") {
    workload::CloudCorpusConfig cfg;
    cfg.num_vms = static_cast<int>(opts.get_int("vms", 16));
    cfg.vm_bytes = static_cast<uint64_t>(opts.get_int("vm_mb", 12)) << 20;
    opts.check_unused();
    workload::CloudCorpus corpus(cfg);
    const uint64_t apo = (4 << 20) / cfg.atom_size;
    for (int vm = 0; vm < corpus.num_vms(); vm++) {
      for (uint64_t at = 0; at < corpus.atoms_per_vm(); at += apo) {
        const uint64_t n = std::min<uint64_t>(apo, corpus.atoms_per_vm() - at);
        a.add_object("vm" + std::to_string(vm) + "." + std::to_string(at / apo),
                     corpus.read(vm, at, n));
      }
    }
    std::printf("private-cloud-like corpus, %d VMs", cfg.num_vms);
  } else if (workload == "vmimages") {
    workload::VmImageConfig cfg;
    cfg.image_bytes = static_cast<uint64_t>(opts.get_int("image_mb", 32)) << 20;
    const int images = static_cast<int>(opts.get_int("images", 10));
    opts.check_unused();
    workload::VmImageCorpus corpus(cfg);
    for (int vm = 0; vm < images; vm++) {
      for (uint64_t b = 0; b < corpus.blocks_per_image(); b++) {
        a.add_object(corpus.image_object_name(vm, b),
                     corpus.image_block(vm, b));
      }
    }
    std::printf("VM image clones, %d images", images);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  std::printf(", %d OSDs\n", osds);
  report(a, chunk);
  return 0;
}
