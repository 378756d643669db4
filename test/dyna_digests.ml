(* Recorded outcome of every workload under the DynaSOA allocator, at
   scale 0.02, seed 42, all iterations: for CUDA dispatch on the SoA
   heap (column DYNA) and SharedOA dispatch on it (SHARD+DYNA). Each row
   is (workload, column, result, heap checksum, allocator stats, stats
   digest); the allocator stats are rendered by [render_alloc_stats] and
   the digest is the MD5 of the marshalled [Stats.to_raw] of the
   measured region. The paper cells in [Cell_digests] never use this
   allocator, so these rows are what pins its addresses and layout. *)

let render_alloc_stats (s : Repro_core.Allocator.stats) =
  Printf.sprintf "objects=%d live=%d reserved=%d used=%d padded=%d alloc=%h free=%h scan=%h"
    s.objects s.live_objects s.reserved_bytes s.used_bytes s.padded_bytes
    s.alloc_cycles s.free_cycles s.bitmap_scan_cycles

let cells =
  [
    ("Dynasoar/TRAF", "DYNA", 75042, 4208921631710944127,
     "objects=1540 live=1540 reserved=110592 used=36936 padded=69632 alloc=0x1.142p+16 free=0x0p+0 scan=0x1.1cp+13",
     "78da416740b88cd99812bc457840c969");
    ("Dynasoar/TRAF", "SHARD+DYNA", 75042, 4208921631710944127,
     "objects=1540 live=1540 reserved=110592 used=49256 padded=55808 alloc=0x1.142p+16 free=0x0p+0 scan=0x1.1cp+13",
     "78da416740b88cd99812bc457840c969");
    ("Dynasoar/GOL", "DYNA", 4462326880140024361, 1093068540644049095,
     "objects=3468 live=3468 reserved=233472 used=55488 padded=175104 alloc=0x1.3788p+17 free=0x0p+0 scan=0x1.44cp+14",
     "abc606002ae9fccf71a2b98e8b6f6958");
    ("Dynasoar/GOL", "SHARD+DYNA", 4462326880140024361, 1093068540644049095,
     "objects=3468 live=3468 reserved=233472 used=83232 padded=145920 alloc=0x1.3788p+17 free=0x0p+0 scan=0x1.44cp+14",
     "abc606002ae9fccf71a2b98e8b6f6958");
    ("Dynasoar/STUT", "DYNA", 4734976, 1690262583351031105,
     "objects=833 live=833 reserved=61440 used=22304 padded=35328 alloc=0x1.2a58p+15 free=0x0p+0 scan=0x1.304p+12",
     "c47a9f84123997e78795fd4403b45b50");
    ("Dynasoar/STUT", "SHARD+DYNA", 4734976, 1690262583351031105,
     "objects=833 live=833 reserved=61440 used=28968 padded=27648 alloc=0x1.2a58p+15 free=0x0p+0 scan=0x1.304p+12",
     "c47a9f84123997e78795fd4403b45b50");
    ("Dynasoar/GEN", "DYNA", 1277950900014575062, 1961346138818006232,
     "objects=768 live=768 reserved=49152 used=12288 padded=36864 alloc=0x1.14p+15 free=0x0p+0 scan=0x1.2p+12",
     "94af97aa5cee671a2013dd602147ef0c");
    ("Dynasoar/GEN", "SHARD+DYNA", 1277950900014575062, 1961346138818006232,
     "objects=768 live=768 reserved=49152 used=18432 padded=30720 alloc=0x1.14p+15 free=0x0p+0 scan=0x1.2p+12",
     "94af97aa5cee671a2013dd602147ef0c");
    ("GraphChi-vE/BFS", "DYNA", 4194932, 2007671423530153677,
     "objects=1400 live=1400 reserved=94208 used=33600 padded=58880 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "6a3df5dccd0cc6f1c28105850864b6d5");
    ("GraphChi-vE/BFS", "SHARD+DYNA", 4194932, 2007671423530153677,
     "objects=1400 live=1400 reserved=94208 used=44800 padded=47104 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "6a3df5dccd0cc6f1c28105850864b6d5");
    ("GraphChi-vE/CC", "DYNA", 0, 4532588501128497287,
     "objects=1400 live=1400 reserved=94208 used=33600 padded=58880 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "4b70b6bb7158f054aa278b552a2d2551");
    ("GraphChi-vE/CC", "SHARD+DYNA", 0, 4532588501128497287,
     "objects=1400 live=1400 reserved=94208 used=44800 padded=47104 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "4b70b6bb7158f054aa278b552a2d2551");
    ("GraphChi-vE/PR", "DYNA", 8215210, 4293655765210116479,
     "objects=1400 live=1400 reserved=94208 used=33600 padded=58880 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "407f03cd01008db07ca29ef9d780da08");
    ("GraphChi-vE/PR", "SHARD+DYNA", 8215210, 4293655765210116479,
     "objects=1400 live=1400 reserved=94208 used=44800 padded=47104 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "407f03cd01008db07ca29ef9d780da08");
    ("GraphChi-vEN/BFS", "DYNA", 4194932, 1192652059325392965,
     "objects=1400 live=1400 reserved=94208 used=33600 padded=58880 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "1876913c6b57254fee6353fdfba06723");
    ("GraphChi-vEN/BFS", "SHARD+DYNA", 4194932, 1192652059325392965,
     "objects=1400 live=1400 reserved=94208 used=44800 padded=47104 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "1876913c6b57254fee6353fdfba06723");
    ("GraphChi-vEN/CC", "DYNA", 0, 1819571931331520989,
     "objects=1400 live=1400 reserved=94208 used=33600 padded=58880 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "907c4855fced4f4c7b01bf888468bed4");
    ("GraphChi-vEN/CC", "SHARD+DYNA", 0, 1819571931331520989,
     "objects=1400 live=1400 reserved=94208 used=44800 padded=47104 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "907c4855fced4f4c7b01bf888468bed4");
    ("GraphChi-vEN/PR", "DYNA", 8215210, 4293655765210116479,
     "objects=1400 live=1400 reserved=94208 used=33600 padded=58880 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "097ff89df323a623e6caefe89e827413");
    ("GraphChi-vEN/PR", "SHARD+DYNA", 8215210, 4293655765210116479,
     "objects=1400 live=1400 reserved=94208 used=44800 padded=47104 alloc=0x1.f6cp+15 free=0x0p+0 scan=0x1.05p+13",
     "097ff89df323a623e6caefe89e827413");
    ("RAY/RAY", "DYNA", 2213155160122015357, 1422471648209715164,
     "objects=8 live=8 reserved=8192 used=240 padded=4608 alloc=0x1.6p+8 free=0x0p+0 scan=0x1p+5",
     "550c6500358a03935147bb8f8a754a13");
    ("RAY/RAY", "SHARD+DYNA", 2213155160122015357, 1422471648209715164,
     "objects=8 live=8 reserved=8192 used=304 padded=3584 alloc=0x1.6p+8 free=0x0p+0 scan=0x1p+5",
     "550c6500358a03935147bb8f8a754a13");
  ]
