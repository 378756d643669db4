(* Recorded (result, stats digest) of every paper cell — the 11
   workloads x the 5 paper techniques — at scale 0.02, seed 42, all
   iterations, on each technique's default allocator. The digest is the
   MD5 of the marshalled [Stats.to_raw] of the device after the whole run
   (setup launches included). Sanitized and unsanitized runs both match
   these values. Edit a row only when a change is meant to move the
   model's numbers; the failing check prints the new pair. *)

let cells =
  [
    ("Dynasoar/TRAF", "CUDA", 75042, "1dbf8f97fc9fdbf3634a25b283e5b905");
    ("Dynasoar/TRAF", "CON", 75042, "db76e20a9ab323f12e4ecc0135f5b81a");
    ("Dynasoar/TRAF", "SHARD", 75042, "6f97a1faa681b3b0406db26c79421edc");
    ("Dynasoar/TRAF", "COAL", 75042, "6e0705ab2cb7c319ae4f966e375b894e");
    ("Dynasoar/TRAF", "TP", 75042, "69bf43b355877fc8a8fd482910b0fdbf");
    ("Dynasoar/GOL", "CUDA", 4462326880140024361, "e07fced1156af42bf7ff67b02cc4f86c");
    ("Dynasoar/GOL", "CON", 4462326880140024361, "a20b0f0c5ec961711d87b91e57fb93ef");
    ("Dynasoar/GOL", "SHARD", 4462326880140024361, "31f63d1cca8df0c4da3ab9546b4ee1b8");
    ("Dynasoar/GOL", "COAL", 4462326880140024361, "4c94d0e00e152a1cba7792796aa54880");
    ("Dynasoar/GOL", "TP", 4462326880140024361, "ba09b1a3a5fbf218141cdcfcbf747f3f");
    ("Dynasoar/STUT", "CUDA", 4734976, "808ea755157b93624f62d3a7cd8de446");
    ("Dynasoar/STUT", "CON", 4734976, "36d0bafb3f37da19f8afd825eda68107");
    ("Dynasoar/STUT", "SHARD", 4734976, "3794fb82a846d587976ec026c5618287");
    ("Dynasoar/STUT", "COAL", 4734976, "fb5ad4a8ad82c56be1e3bfc97d189b03");
    ("Dynasoar/STUT", "TP", 4734976, "b4be5630ba94a12839466085498917bb");
    ("Dynasoar/GEN", "CUDA", 1277950900014575062, "c9b1d97fca011b72817eb9b02f2308b1");
    ("Dynasoar/GEN", "CON", 1277950900014575062, "f86d1d56bf54aaa76454701eb1bccb80");
    ("Dynasoar/GEN", "SHARD", 1277950900014575062, "10f14bbd2fa8f028000aa2e924fc4266");
    ("Dynasoar/GEN", "COAL", 1277950900014575062, "504982aaf8d825956b3b00d88aeebe93");
    ("Dynasoar/GEN", "TP", 1277950900014575062, "3b6f6e1a8cd768bc1d6c24b4340d7405");
    ("GraphChi-vE/BFS", "CUDA", 4194932, "a9a35302bb12bacd561577981028f575");
    ("GraphChi-vE/BFS", "CON", 4194932, "160cc41fad5901ae32b681d9b5e36e02");
    ("GraphChi-vE/BFS", "SHARD", 4194932, "cc44e955896f18253952b021d21bec39");
    ("GraphChi-vE/BFS", "COAL", 4194932, "3e0f0a2f358697cdb2ceb6b034796777");
    ("GraphChi-vE/BFS", "TP", 4194932, "62dc4ef3580f2ddf1dd3ff7629d8a498");
    ("GraphChi-vE/CC", "CUDA", 0, "cfd22a538f13b14a0aba838a8d466e89");
    ("GraphChi-vE/CC", "CON", 0, "cbe0ed127b1f489a3695245dfe4a55ff");
    ("GraphChi-vE/CC", "SHARD", 0, "0c4322e93bd1990f6b31c002b5785905");
    ("GraphChi-vE/CC", "COAL", 0, "de34bf45d61db6d63c21a1aaaf1646f0");
    ("GraphChi-vE/CC", "TP", 0, "6ca2e473891042015a2c41c4234c84ef");
    ("GraphChi-vE/PR", "CUDA", 8215210, "99aba01ef8063cf5d716c19d38553f0a");
    ("GraphChi-vE/PR", "CON", 8215210, "c1dc1a92644c5e82867b1758e8a3bbba");
    ("GraphChi-vE/PR", "SHARD", 8215210, "bf9e0bbdf660620e771a5d0aab32fa31");
    ("GraphChi-vE/PR", "COAL", 8215210, "04b71a030bc40791c2720c148fbcba27");
    ("GraphChi-vE/PR", "TP", 8215210, "994d6e6054ae46d9d342df78bdd668cb");
    ("GraphChi-vEN/BFS", "CUDA", 4194932, "78d92b2f026af00d002016f8173171ee");
    ("GraphChi-vEN/BFS", "CON", 4194932, "1fda66cdbae3bef98e33541d16930879");
    ("GraphChi-vEN/BFS", "SHARD", 4194932, "881b2465cfb386c722b8cc646e0fc2a9");
    ("GraphChi-vEN/BFS", "COAL", 4194932, "fabda86832f26a7c6e1509513f89aa65");
    ("GraphChi-vEN/BFS", "TP", 4194932, "62d2701ed47d6604af7c526f368d9d00");
    ("GraphChi-vEN/CC", "CUDA", 0, "831833c6409adbb8505e1ad331377932");
    ("GraphChi-vEN/CC", "CON", 0, "b45a8c6a71cc6f104ffbe838e09aa719");
    ("GraphChi-vEN/CC", "SHARD", 0, "bb0631acfa281f5353aac346c822b16c");
    ("GraphChi-vEN/CC", "COAL", 0, "d7c2be425302c1688b769bc89c0d4afc");
    ("GraphChi-vEN/CC", "TP", 0, "684fcd8778bcd535c409ec3a09696788");
    ("GraphChi-vEN/PR", "CUDA", 8215210, "25ac10d330f7fdafe49e1ddec0f75f49");
    ("GraphChi-vEN/PR", "CON", 8215210, "fa9c3e192169f211a8afdb150689a7d0");
    ("GraphChi-vEN/PR", "SHARD", 8215210, "67966c6d58650e1abf9bcf0ef91ff491");
    ("GraphChi-vEN/PR", "COAL", 8215210, "893e25ddba5dc87af051e4da5eac57fb");
    ("GraphChi-vEN/PR", "TP", 8215210, "ad8346b9eca7daedb77739a9432b51a6");
    ("RAY/RAY", "CUDA", 2213155160122015357, "b29eed6e34e9ab67dd0f6b0136bb709c");
    ("RAY/RAY", "CON", 2213155160122015357, "da6a5c4d799c62eec39f2273d40e3e84");
    ("RAY/RAY", "SHARD", 2213155160122015357, "314472b1c7087e8a41c5bb31e8753b68");
    ("RAY/RAY", "COAL", 2213155160122015357, "314472b1c7087e8a41c5bb31e8753b68");
    ("RAY/RAY", "TP", 2213155160122015357, "747b3a1a087f6c21f283118d36b44120");
  ]
