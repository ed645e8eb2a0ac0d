//! Golden stream fingerprints: three seeded feeds run through a
//! store-backed engine, with every checkpoint's deterministic fields
//! and the sealed state pinned as literals.
//!
//! The other determinism gates compare two runs of the same build, so a
//! change that moves every run alike passes them. These literals were
//! captured from the dense-fit, byte-serial-hash engine; any later
//! change to how windows are hashed, fitted or checkpointed must land on
//! exactly these values.

use std::sync::Arc;

use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_dataset::{ExamRecord, StreamOrder};
use ada_kdb::schema::names;
use ada_kdb::{Filter, SharedKdb, Value};
use ada_obs::StreamMetrics;
use ada_stream::{StreamConfig, StreamEngine};

/// One pinned feed: cohort, delivery order and engine configuration.
struct Feed {
    cohort: SyntheticConfig,
    cohort_seed: u64,
    order_seed: u64,
    disorder: usize,
    config: StreamConfig,
}

impl Feed {
    fn records(&self) -> Vec<ExamRecord> {
        let log = generate(&self.cohort, self.cohort_seed);
        StreamOrder::new(&log, self.order_seed, self.disorder).collect()
    }
}

/// Runs `feed` in 512-record batches into a fresh in-memory store and
/// returns one line per checkpoint, `window vsm_fp model_fp refit drift
/// rows vocab`, in window order, then the sealed `vsm_fp model_fp
/// windows_closed refits folded`.
fn run(feed: &Feed) -> (String, String) {
    let store = SharedKdb::in_memory();
    let (mut engine, resumed) = StreamEngine::open(
        feed.config.clone(),
        Some(store.clone()),
        Arc::new(StreamMetrics::new()),
        None,
    )
    .unwrap();
    assert_eq!(resumed, 0);
    for batch in feed.records().chunks(512) {
        engine.ingest(batch).unwrap();
    }
    engine.seal().unwrap();
    let sealed = format!(
        "{:016x} {} {} {} {}",
        engine.vsm_fingerprint(),
        engine
            .model_fingerprint()
            .map_or(String::new(), |fp| format!("{fp:016x}")),
        engine.windows_closed(),
        engine.refits(),
        engine.folded(),
    );
    let mut docs: Vec<_> = store
        .read()
        .find(
            names::STREAM_WINDOWS,
            &Filter::eq("stream", feed.config.name.as_str()),
        )
        .unwrap()
        .into_iter()
        .map(|(_, doc)| doc)
        .collect();
    docs.sort_by_key(|d| d.get("window").and_then(Value::as_i64));
    let mut checkpoints = String::new();
    for doc in &docs {
        let int = |f: &str| doc.get(f).and_then(Value::as_i64).unwrap();
        let text = |f: &str| doc.get(f).and_then(Value::as_str).unwrap().to_owned();
        checkpoints.push_str(&format!(
            "{} {} {} {} {:?} {} {}\n",
            int("window"),
            text("vsm_fp"),
            text("model_fp"),
            doc.get("refit").and_then(Value::as_bool).unwrap(),
            doc.get("drift").and_then(Value::as_f64).unwrap(),
            int("rows"),
            int("vocab"),
        ));
    }
    (checkpoints, sealed)
}

fn check(feed: &Feed, checkpoints: &str, sealed: &str) {
    let (actual_checkpoints, actual_sealed) = run(feed);
    if actual_checkpoints != checkpoints || actual_sealed != sealed {
        eprintln!("{actual_checkpoints}\n{actual_sealed}");
    }
    assert_eq!(
        actual_checkpoints, checkpoints,
        "per-window checkpoints moved"
    );
    assert_eq!(actual_sealed, sealed, "sealed state moved");
}

#[test]
fn small_feed_fingerprints_are_pinned() {
    check(
        &Feed {
            cohort: SyntheticConfig::small(),
            cohort_seed: 7,
            order_seed: 7,
            disorder: 5,
            config: StreamConfig::new("golden-small")
                .window_days(7)
                .lateness_days(7)
                .k(3)
                .min_rows(8)
                .update_iters(3)
                .refit_iters(30),
        },
        SMALL_CHECKPOINTS,
        SMALL_SEALED,
    );
}

#[test]
fn drifting_small_feed_fingerprints_are_pinned() {
    // A tight drift threshold makes warm updates escalate to full
    // re-fits, so the re-fit path is pinned too.
    check(
        &Feed {
            cohort: SyntheticConfig {
                num_patients: 250,
                num_exam_types: 40,
                target_records: 4_000,
                ..SyntheticConfig::small()
            },
            cohort_seed: 11,
            order_seed: 13,
            disorder: 6,
            config: StreamConfig::new("golden-drift")
                .window_days(7)
                .lateness_days(14)
                .k(4)
                .seed(5)
                .min_rows(16)
                .update_iters(2)
                .refit_iters(50)
                .drift_threshold(1.02),
        },
        DRIFT_CHECKPOINTS,
        DRIFT_SEALED,
    );
}

#[test]
fn paper_scale_feed_fingerprints_are_pinned() {
    check(
        &Feed {
            cohort: SyntheticConfig::paper(),
            cohort_seed: 42,
            order_seed: 42,
            disorder: 6,
            config: StreamConfig::new("golden-paper")
                .window_days(7)
                .lateness_days(7)
                .k(8)
                .seed(42)
                .min_rows(8)
                .update_iters(3)
                .refit_iters(30),
        },
        PAPER_CHECKPOINTS,
        PAPER_SEALED,
    );
}

const SMALL_CHECKPOINTS: &str = "\
105085 b0e9fe20bac31fdf 96f12b8d66313f48 true 0.0 15 25
105086 72bb03e8d711bcb8 cef0ab9e538f80c9 true 1.4296293517406964 40 35
105087 8e57e27f69e543c8 32a9bd26117b50a4 false 1.2057963279041042 63 40
105088 b395b19e379abd5e c88ecde3d3a18875 false 1.1932081882804624 93 44
105089 d651ff2ec731a509 ff104fda0f6b33df true 1.2918993608402005 120 47
105090 31f971d710365e45 7d799fe292e6ad9c false 1.0003543919304698 146 48
105091 e72f85ca6f533c7b 7855f3c9f63a616f false 1.0501612491685812 171 52
105092 1f954a67411e2228 cbd954e038ed64ba false 1.1164554673100788 197 53
105093 76eec28b59cb4e1c d291e2a3719d1c0e false 1.1495396178700583 207 53
105094 6c06e8d0d68d9620 f14c61c9baea25fe false 1.1870103328831354 217 53
105095 0833bd622545a3e4 2548a707cb46da8e true 1.2576236811486785 225 53
105096 099b84e7b553dcf6 822052b3d9f7dabf false 1.0527340709761301 240 53
105097 d10bdcb6f78f24c9 43a416c6479a3106 false 1.1287136682575027 249 53
105098 73bc7a2f5f6f08a0 044c04558ec7055b false 1.177706775655102 261 53
105099 944ff5a6fcbfbaf6 46563d822dd367a8 false 1.2141095398977513 268 53
105100 a71a3f2025fcb905 1b382ba4a0432dab false 1.2332300907147085 277 53
105101 cec2d390e005d3c4 624fa535e85bfeda true 1.284559434282177 284 54
105102 34427a7c7c89a3b7 034e27db08fced73 false 1.0570841414033383 291 54
105103 5cd08794baf9f0b6 532947f0a9a87893 false 1.108996703759963 300 54
105104 bc563b9506276c23 e590b874a2f09b9a false 1.1525434636945606 307 55
105105 4d0a21ac5bb21ccb 40614f7b372b304c false 1.2102506580665178 314 55
105106 670f079ff1f720ec 896c5137ffd5b950 false 1.249994308944436 323 55
105107 1f39802c3d86361c 148a443fed98d1cd true 1.2790307423687541 329 55
105108 2bbb890714ca1a8d 44e4f176f3442421 false 1.0724196407827005 334 55
105109 631c2b801c9ebe3e 7de3d7861e1f8be1 false 1.1142283983757517 340 55
105110 35b68eee9ef8b7fa 8c6a6ccc16c43cd9 false 1.1321418087205017 346 55
105111 7a575d6aa59d9d30 6d5212a9bd64962b false 1.1690758920170554 350 55
105112 78923dc61ad8cea4 6843a17e3672f104 false 1.2020943490772338 357 59
105113 28eaaf37ceec5486 1efecc973d8f2018 false 1.2368086682779371 358 59
105114 973e0efb1a94fa1f 0548ab2c76ac525c true 1.2625809126958791 362 60
105115 7e93aa16342eb504 dedfe049819ca0cb false 1.0557782434282912 366 60
105116 f471a7ce926cb506 2630e6e5b1184cca false 1.0798882801326226 371 60
105117 22fc4e0c1485ae45 d24d64fa8490c202 false 1.1070350312536923 373 60
105118 92a6b1ede762d911 b071fda9c8d971e2 false 1.1606442053898613 374 60
105119 cc3bb9d13033cd2f e52b0f76d03d8766 false 1.1954725429787405 378 60
105120 8aeaab72a240ac96 95643379e30cd339 false 1.2427060476601326 381 60
105121 e9347e650164d6da 2dabef6932998d04 true 1.300714005436679 381 60
105122 e4669a5f1a09b656 73c1a01278bddc70 false 1.0203546584174843 388 60
105123 9846ee87b260d96e 75ddfc61b6a49cd5 false 1.0449482382790596 389 60
105124 c486fddf8981274a 13339481cb2c50b7 false 1.084590621340878 389 60
105125 cdb97a10ec9936b0 47b57cf7201d2a44 false 1.1118109107151373 392 60
105126 3f47f2d40949cb0c 1fe2bf22c1462e4b false 1.1505239356900425 392 60
105127 103895eff9c72573 d8faf8a9cf38b473 false 1.1747149129954737 394 60
105128 11a0d032c99f4c5f b4fd5457b211a907 false 1.2080520358700617 396 60
105129 45f69134eb71d819 535564bead74e02e false 1.2428443144520525 397 60
105130 8f84a24910b01e58 dabbe05f11ef5ec1 true 1.2817642334260606 397 60
105131 2468534cda097ddf c1328c15d4e93549 false 1.0285396262313584 398 60
105132 161d3eced8defc8e 740292fedfb9af1e false 1.0522141238844227 398 60
105133 1974e7d77c05f032 dad929dee9717ec7 false 1.0724872293396204 398 60
105134 a3d7ab8e7289b33e 16df3eef4346d2e4 false 1.0856914325079186 399 60
105135 1bd7fd64746ed657 56f034f0c0dd8b29 false 1.113240369446833 399 60
105136 726b5628f39bbc1c d743ec41386e9628 false 1.1419573263070588 400 60
105137 958c184fd55a2469 f033ee17a3898ace false 1.1551351060507342 400 60
";

const SMALL_SEALED: &str = "958c184fd55a2469 f033ee17a3898ace 53 9 6136";

const DRIFT_CHECKPOINTS: &str = "\
105085 3992c6d769451a3e  false 0.0 12 19
105086 ea093f35648f6b8e 33588fd2d8db7db4 true 0.0 32 27
105087 fa7b2da2da924b50 ec41fed278836953 true 1.3022410075135364 44 27
105088 6738b39a9dcf2971 ef473c5d300a1b7c false 1.0080422270685339 58 28
105089 5c3095a02a2c4b15 1c43304af4b20d8c true 1.2080312428616515 68 30
105090 34322328152fa7f2 cb68f0251bac6de7 true 1.0850751153630687 90 34
105091 0a554069e3294b4a af9cf9ef56375a71 true 1.0407677524268462 104 34
105092 9e56993020fd18da baf2eb5b30874533 true 1.0532719459029973 117 34
105093 caa846cee8144d5d 1a19b85d2eeb46b9 true 1.0743542845692944 127 36
105094 c09985025cf415af 12d003e597de0486 false 1.019050873235367 137 36
105095 07688a3d8af291b7 2ffd16f1d3fdb52f true 1.0838251991355166 147 36
105096 47c87e83e7666c50 07aec046a1c8efd0 true 1.0314042486686346 155 36
105097 791dcdbb3c407ac1 79cc49b9d0d15791 true 1.0239042280749449 166 39
105098 1a5f0c97d4c6909b b6758d9e2242df83 true 1.0470262514532778 174 39
105099 6cf1e693617d6472 800aa92b3b3646ae false 1.0169364444431386 183 39
105100 ab43b824514c2a7e 4b1e1466b6f4eaf3 true 1.071983998772257 190 39
105101 01991165ce6dd4ab b80ddc7fe106dd75 true 1.0588797094484605 192 39
105102 0ae35e9fb6f6d88d e65ec68d838ca93e true 1.040013983057869 194 39
105103 f799aec4789189b4 bef4b71a5432c085 true 1.0498806573681199 196 39
105104 87163fd428e7db4c c20418ec7a602415 false 1.0172696260821403 204 39
105105 c8d4c442dba49283 49108211aa69de1b true 1.0621122410496322 210 40
105106 746f198e7f8df91f fcd989616091714f true 1.0523620193001806 214 40
105107 aacbee37dac1f75b 803c340793323caa true 1.0296444806297782 215 40
105108 6c33e5f8987f11a0 c5bf5961386f6f3a true 1.0731213078293673 218 40
105109 ca1ecf4356745422 c5bb2ea60e820aa5 true 1.0326469580848086 221 40
105110 441699f17329b3d2 9e15d760a981012f true 1.0363386623706528 223 40
105111 46962cf1d3ee891b 93aeb12c140ec23f true 1.0393087900093316 227 40
105112 0231e7b0f97a0dca 626135d33c1eb1c5 true 1.0784754100560467 229 40
105113 2c63507cdd00bfc2 c90d691905305588 true 1.0378495428924561 230 40
105114 bfc3a47190f7de52 a0e17a50c71d5641 true 1.0303611919075621 231 40
105115 65fa37bd4fef1dd9 5ad316aef4dc50c0 true 1.020589724668957 232 40
105116 146b8f5c90bb95c4 590e59b459d887bd false 1.0181278227160517 235 40
105117 e082dcbb896992e2 b7a0c502ce3bfbe5 true 1.0433994595224843 237 40
105118 926deed5610f3f73 71848ca2bec0b46a true 1.022750452103356 238 40
105119 fd189c42eaae847e bd44896c607f33bb false 1.0183843892355153 238 40
105120 5031da29ab70145c 73254194e305bfdb true 1.0377121665830598 239 40
105121 b416b18b0e6a9782 3d78989c3a0e7c14 true 1.0354873709997856 240 40
105122 927f8278f9fece31 6a55acf2ea617e1c false 1.0191529313873373 240 40
105123 ba7d5db9c93427dd a7aece2137014502 true 1.0423225877366649 241 40
105124 ffaa1062a943cf36 3efabd07fb0b028d true 1.038668335825976 243 40
105125 4ed8f03a321f126a 23b3868b356cfc2d true 1.0258992579112258 243 40
105126 f66da3575e29539c 5925ec42b57bdb98 true 1.0381123324332868 243 40
105127 c0adf6a9f0a82ffa ca7489f3c5b36423 true 1.0432939943208408 245 40
105128 c90f843c2e731805 9c120cb80f2acbe4 true 1.0249266740918166 245 40
105129 d2ab51c73f62910c 7b616f892b2db4ba true 1.0234181428751972 246 40
105130 9dc76f96f00ad08a e3640e28b45b1846 true 1.0230176737153043 247 40
105131 2d1be0fee20279f5 afa362cb43189296 false 1.0054145275246145 248 40
105132 53566569975447a3 12bb763cdec86300 true 1.038013173145686 249 40
105133 474710950635f580 cb9ef353237eeeef false 1.0163668589013635 250 40
105134 6c00957034ef6d38 4e433ec231e09775 true 1.0359165453981476 250 40
105135 4881c02365a5c7a6 6aa2aa37d732a252 false 1.0194420996705007 250 40
105136 4258b65001a3ebc4 6ea15256013f1131 true 1.0436099803367975 250 40
105137 14480bc8d864e3d4 62744a060b4ddf55 false 1.0022152066009413 250 40
";

const DRIFT_SEALED: &str = "14480bc8d864e3d4 62744a060b4ddf55 53 41 4177";

const PAPER_CHECKPOINTS: &str = "\
105085 9d68c8c0925c7e05 1785d1e2f39a7509 true 0.0 285 103
105086 91d34e6856338ea8 61e89cea75ee531c false 1.07066725469971 768 128
105087 cab31e3ea726ae19 21ff1d0ede3a4729 false 1.1539330932479466 1206 140
105088 0efd51b74fa86412 36bd3f83171995ea false 1.1965146563158304 1602 150
105089 d8b320499b08948f c68b12d83be86fda true 1.2770075992726713 1938 156
105090 352fd5c91da14860 de1db36a66526e06 false 1.0333115522164533 2279 157
105091 985aca8334ef01a9 bd855473e5e6b3bf false 1.096433574827207 2614 158
105092 9ac93589804cbf06 24d92835e59f2abf false 1.1311801204157508 2901 158
105093 ee1214d0b537ea5a 13fe5678476cbb1e false 1.17669718308871 3179 159
105094 0a114cff9bcdb4c2 7593756cb845954a false 1.2232131758725624 3438 159
105095 ad4e1ec0b4a28c81 360f27d1c461df00 true 1.2691338388270565 3685 159
105096 39a40a1cdfce3d56 91e652c6ed57aaa5 false 1.0431218985891288 3909 159
105097 18561c96a3646ca0 25dd34009186acd5 false 1.084387292304245 4101 159
105098 3122d3b634bd56f1 c7be8ee7997dba75 false 1.1334372052024184 4275 159
105099 ae9503b63ff2bfeb 147ca1a44961878a false 1.1720869600418797 4412 159
105100 c1082bd510622e00 289650a6287d42da false 1.2085761182675525 4585 159
105101 8ec9b118cccf05d6 46da08f7f5c2a895 false 1.247253754117723 4740 159
105102 da14dab2ec1fd9f7 3b58aca08c3686f0 true 1.2958326968427012 4857 159
105103 44f96ee6b95b390d 94a35c44afc5c96c false 1.0369085145692243 4964 159
105104 43279d6a43a643cd 0e3b156987d9453d false 1.0712630157761094 5086 159
105105 6d4271072a1d17bc 1db4a239cb4d63e9 false 1.1090164521313235 5200 159
105106 36c244013a039bc8 49bdaa560a1e2689 false 1.1527670922074023 5283 159
105107 f60d4032c6d0c1a4 70b86859b5065a3e false 1.2019239478393215 5363 159
105108 79cb96a30fe78ff3 8ca6169f124912ea false 1.2437252455688383 5437 159
105109 11d1b8eb9c1587ff e1e0265a110e25cc true 1.2837347125359633 5519 159
105110 27e8527db5540bbb d71f896aab66cebf false 1.0295630221764889 5586 159
105111 56a59e8d5b55a23a bc02ae6c55818ea6 false 1.0619619357956733 5641 159
105112 4c35af90def91fb6 48f9fa3954673e25 false 1.094250321095503 5705 159
105113 7003e6ccaf5f7cfd c62d99d69b383520 false 1.1249443383800348 5762 159
105114 5405885ae53ae64d 15e9e7ef43f2405e false 1.1590144603784127 5813 159
105115 4226692244795bde cea955541cc47392 false 1.1947531904882533 5860 159
105116 bae3dea73f170ee9 602be7a27d2878b1 false 1.225508900722138 5901 159
105117 891187f45657b5b7 d27d032515f1c498 true 1.2601889984258021 5947 159
105118 74d3e3b8446e9568 b126a92a2077734c false 1.0288061772829702 5988 159
105119 96eb3ccb5ee75d32 d86e4fe1f5e970b0 false 1.0546208664460943 6019 159
105120 45b6df1a8d80f17c b45fcdbfaa83826d false 1.0786322295658 6051 159
105121 d1075a009124994b 825be67a26add5a2 false 1.1038290603384675 6093 159
105122 1c3ed92111e1fcc0 ff658ec796163b9f false 1.1304551053450405 6123 159
105123 65e1100a513c8cf7 150c7642c4ec67c5 false 1.1583108736891183 6151 159
105124 6a47598fff2a3f7d 1a5aeda13f6aabdc false 1.1828771559863895 6172 159
105125 c15bfba4fd0e1376 93016aace4e99494 false 1.2103976657374287 6198 159
105126 0a0c3242aa1267c8 72055c547de403bb false 1.2386361152680023 6215 159
105127 fcc7bafc34956e63 10c5d608ae30b2c4 true 1.2718635819246302 6234 159
105128 8802cbcebc0bc421 b02f7b3c2db0c932 false 1.0223676513368158 6250 159
105129 7ae248f80b7cec2d 8739f16686f6a0c6 false 1.0417632651760265 6277 159
105130 182b2548605bb530 dab7b79caffd9f4f false 1.064296390690446 6290 159
105131 0d1b9f829a1988b4 b7bd9ff1c10c8eee false 1.0879709277241296 6315 159
105132 5ddcf01c438e2b96 c74f78ad1159140b false 1.1123967403522275 6329 159
105133 d7aeab71dd2493c6 001ed529a29f8abd false 1.1375397490983208 6340 159
105134 cbbcee1e97b8261d c6b30c02f8f6de5f false 1.1618344107473106 6357 159
105135 b5b2a6cd85c07a79 5a6cd6203439fa7a false 1.1846506268818293 6366 159
105136 e2a61bd27fbbca11 259d86cd02fadcb2 false 1.209293440601006 6375 159
105137 e626a481eb5e4c6f a69826b49f40e393 false 1.2214343775260057 6380 159
";

const PAPER_SEALED: &str = "e626a481eb5e4c6f a69826b49f40e393 53 7 94574";
