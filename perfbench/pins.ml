(* Reference outputs pinned at the commit that introduced this benchmark,
   for the checks that BENCH_0010.json does not cover: the Table 1/2
   cells at seed 42 (bench/main.exe quick settings; hex literals, so the
   comparison is exact) and the exploration verdicts, which hold at every
   seed. Regenerate only for an intentional model change, as with the
   BENCH_* artifacts. *)

let seed = 42

let tables : (string * float array) list =
  [
    ("table1.read-heavy/t1", [| 0x1p+0; 0x1.006f443cd9514p+0; 0x1.fe42ef0c9abaep-1; 0x1.006f443cd9514p+0; 0x1.006f443cd9514p+0; 0x1.fe42ef0c9abaep-1; 0x1.fba7559f82d34p-1; 0x1.fac8cd25d030bp-1; 0x1.fac8cd25d030bp-1; 0x1.f9ea44ac1d8e2p-1; 0x1.f67022c55303fp-1; 0x1.fe42ef0c9abaep-1; 0x1.f74eab3f05a67p-1 |]);
    ("table1.read-heavy/t8", [| 0x1.7f90bbc326aecp+1; 0x1.6dbece0458aa6p+1; 0x1.e3f74eab3f05ap+1; 0x1.67a912b076388p+1; 0x1.da9f138efeb23p+0; 0x1.db45f9ea44ac2p+1; 0x1.a5d030adda9f1p+1; 0x1.d8aa607d2cc47p+1; 0x1.a4f1a83427fc8p+1; 0x1.d83b1c4053733p+1; 0x1.d09ff2177864dp+1; 0x1.2d33b8b84904cp+1; 0x1.dc5c248263f75p+1 |]);
    ("table1.read-heavy/t32", [| 0x1.e124131fba756p+0; 0x1.44e3bfac8cd26p+1; 0x1.e65b45f9ea44bp+1; 0x1.7c85de193575dp+1; 0x1.14a5294a5294ap+1; 0x1.053732da2fcf5p+2; 0x1.ea44ac1d8e203p+1; 0x1.146d872be5ecp+2; 0x1.13c6a0d09ff21p+2; 0x1.1489583b1c405p+2; 0x1.0e0458aa607d3p+2; 0x1.774eab3f05a67p+1; 0x1.de8879b2a28dbp+1 |]);
    ("table1.read-heavy/t128", [| 0x1.ef0c9abae49e3p+0; 0x1.4cb68bf3d4896p+1; 0x1.d919a4ba0615cp+1; 0x1.7b006f443cd95p+1; 0x1.1014dccb68bf4p+1; 0x1.e65b45f9ea44bp+1; 0x1.e7a912b076388p+1; 0x1.0e2029b996d18p+2; 0x1.0bd8037a21e6dp+2; 0x1.0dccb68bf3d49p+2; 0x1.0747b6fb38116p+2; 0x1.97b006f443cd9p+1; 0x1.d75c93c6a0d0ap+1 |]);
    ("table1.mixed/t1", [| 0x1p+0; 0x1.00722c996bee3p+0; 0x1.fe374d9a50476p-1; 0x1.00722c996bee3p+0; 0x1.00722c996bee3p+0; 0x1.fe374d9a50476p-1; 0x1.fb8a4201c8b26p-1; 0x1.faa5e8cef0d61p-1; 0x1.faa5e8cef0d61p-1; 0x1.f9c18f9c18f9cp-1; 0x1.f6302ad0b9888p-1; 0x1.fe374d9a50476p-1; 0x1.f71484039164dp-1 |]);
    ("table1.mixed/t8", [| 0x1.55da895da895ep+1; 0x1.57a33bc3584e8p+1; 0x1.bce0c7ce0c7cep+1; 0x1.4ab42e621e53ep+1; 0x1.c3ca7b1815686p+0; 0x1.ba6cd2823adfp+1; 0x1.815685cc43ca8p+1; 0x1.b1ba6cd2823aep+1; 0x1.818f9c18f9c19p+1; 0x1.b0d6139faa5e9p+1; 0x1.a97a33bc3584ep+1; 0x1.1da895da895dbp+1; 0x1.b6302ad0b9888p+1 |]);
    ("table1.mixed/t32", [| 0x1.dbdfe374d9a5p+0; 0x1.3bc3584e7ea98p+1; 0x1.b7f8dd3669412p+1; 0x1.5e1ac273f54bdp+1; 0x1.00ab42e621e54p+1; 0x1.dbdfe374d9a5p+1; 0x1.bdfe374d9a504p+1; 0x1.eff1ba6cd2824p+1; 0x1.e7ea97a33bc36p+1; 0x1.edeff1ba6cd28p+1; 0x1.e53d8c0ab42e6p+1; 0x1.5932d7dc52101p+1; 0x1.b4a08eb7bfc6fp+1 |]);
    ("table1.mixed/t128", [| 0x1.d84e7ea97a33cp+0; 0x1.4475bdfe374dap+1; 0x1.af0d6139faa5fp+1; 0x1.62c996bee2908p+1; 0x1p+1; 0x1.b831f3831f383p+1; 0x1.baa5e8cef0d61p+1; 0x1.ec273f54bd19ep+1; 0x1.e50475bdfe375p+1; 0x1.ea97a33bc3585p+1; 0x1.e2c996bee2908p+1; 0x1.6c6055a17310fp+1; 0x1.ae9b34a08eb7cp+1 |]);
    ("table1.write-heavy/t1", [| 0x1p+0; 0x1.00ea79d149bb5p+0; 0x1.ff15862eb644bp-1; 0x1.00ea79d149bb5p+0; 0x1.00ea79d149bb5p+0; 0x1.ff15862eb644bp-1; 0x1.fd40928c22ce1p-1; 0x1.fb6b9ee98f578p-1; 0x1.fb6b9ee98f578p-1; 0x1.fa812518459c3p-1; 0x1.f6d73dd31eaefp-1; 0x1.fe2b0c5d6c896p-1; 0x1.f6d73dd31eaefp-1 |]);
    ("table1.write-heavy/t8", [| 0x1.3bc38c980afdbp+1; 0x1.4611670a8878ep+1; 0x1.9b05099dff158p+1; 0x1.3a293769c9f5fp+1; 0x1.b9041f242dcbdp+0; 0x1.9cd9fd40928c2p+1; 0x1.698f57787193p+1; 0x1.9216e5e570335p+1; 0x1.68a4dda727d7bp+1; 0x1.91670a8878e6dp+1; 0x1.8bad912c6c142p+1; 0x1.0f57787193016p+1; 0x1.9a1a8fccb55a3p+1 |]);
    ("table1.write-heavy/t32", [| 0x1.d5de1c64c057fp+0; 0x1.3b88ee23b88eep+1; 0x1.9dc47711dc477p+1; 0x1.4c7abbc38c981p+1; 0x1.eaef0e32602bfp+0; 0x1.a9aca6b29aca7p+1; 0x1.a293769c9f5edp+1; 0x1.c9f5ecc401d4fp+1; 0x1.c057edae7ba64p+1; 0x1.c820f9216e5e5p+1; 0x1.c59c2a21e39b4p+1; 0x1.46fbe0dbd2343p+1; 0x1.9b05099dff158p+1 |]);
    ("table1.write-heavy/t128", [| 0x1.d7b3100753ce9p+0; 0x1.4351f996ab47p+1; 0x1.92518459c2a22p+1; 0x1.4e4faf66200eap+1; 0x1.e82fa0be82fa1p+0; 0x1.94d653594d653p+1; 0x1.9f5ecc401d4f4p+1; 0x1.c6c142677fc56p+1; 0x1.c0cd2a972083ep+1; 0x1.c526ed393ebdap+1; 0x1.c057edae7ba64p+1; 0x1.53ce8a4dda728p+1; 0x1.9041f242dcbcbp+1 |]);
    ("table2/t1", [| 0x1.b5p+7; 0x1.b7p+7; 0x1.b4p+7; 0x1.b7p+7; 0x1.b7p+7; 0x1.b3p+7; 0x1.bp+7; 0x1.afp+7; 0x1.aep+7; 0x1.aep+7; 0x1.a8p+7; 0x1.b3p+7; 0x1.adp+7 |]);
    ("table2/t8", [| 0x1.b78p+8; 0x1.b1p+8; 0x1.f4p+8; 0x1.ac8p+8; 0x1.3ap+8; 0x1.104p+9; 0x1.188p+9; 0x1.404p+9; 0x1.19p+9; 0x1.4p+9; 0x1.3ap+9; 0x1.7cp+8; 0x1.fp+8 |]);
    ("table2/t64", [| 0x1.42p+7; 0x1.76p+7; 0x1.1p+9; 0x1.abcp+9; 0x1.d5p+8; 0x1.12p+9; 0x1.44p+10; 0x1.624p+10; 0x1.7b4p+10; 0x1.6c6p+10; 0x1.6bcp+10; 0x1.0aap+10; 0x1.1p+9 |]);
    ("table2/t255", [| 0x1.58p+7; 0x1.1cp+7; 0x1.3ecp+9; 0x1.658p+9; 0x1.29cp+9; 0x1.728p+9; 0x1.5f2p+10; 0x1.5d2p+10; 0x1.8fep+10; 0x1.614p+10; 0x1.614p+10; 0x1.458p+9; 0x1.3ecp+9 |]);
  ]

let verdicts : (string * string) list =
  [
    ("explore/MCS", "clean");
    ("explore/HBO", "clean");
    ("explore/HCLH", "clean");
    ("explore/FC-MCS", "clean");
    ("explore/C-BO-BO", "clean");
    ("explore/C-TKT-TKT", "clean");
    ("explore/C-BO-MCS", "clean");
    ("explore/C-TKT-MCS", "clean");
    ("explore/C-MCS-MCS", "clean");
    ("explore/CNA", "clean");
    ("explore/PTL", "clean");
    ("explore/pthread", "clean");
    ("explore/Fib-BO", "clean");
    ("explore/HBO (tuned)", "clean");
    ("explore/BO", "clean");
    ("explore/TKT", "clean");
    ("explore/CLH", "clean");
    ("explore/HCLH-full", "clean");
    ("explore/GCR-BO", "clean");
    ("explore/GCR-MCS", "clean");
    ("explore/GCR-C-BO-MCS", "clean");
    ("mutant/C-BO-MCS!skip-limit", "caught");
    ("mutant/TKT!lost-ticket", "caught");
    ("mutant/MCS!late-reset", "caught");
    ("mutant/GCR-MCS!dropped-unpark", "caught");
  ]
