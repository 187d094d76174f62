"""Golden learning curves: the bytes of ``train(...).curve`` are a contract.

Each run below is pinned by the SHA-256 of its curve's raw float64 bytes.  A
change to a hot path (sampling, targets, the ensemble update, priorities) must
leave every digest unchanged; a change that means to alter a curve re-pins the
affected digests and says why.
"""

from __future__ import annotations

import functools
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from trajreplay.dataset import (
    flatten_trajectories,
    load_dataset,
    save_dataset,
)
from trajreplay.learner import EnsembleQ, TrainConfig, train
from trajreplay.scenarios import make_figure1, make_random_chain
from trajreplay.targets import TargetKind

FIG1_VARIANTS = (
    ("uni_state", "uniform", "standard"),
    ("prio_state", "uniform", "standard"),
    *((sampler, metric, kind)
      for sampler, metric in (("uni_traj", "uniform"), ("prio_traj", "return"))
      for kind in ("standard", "sarsa", "weighted")),
)

K16_VARIANTS = (("uni_state", "standard"), ("uni_traj", "standard"), ("uni_traj", "weighted"))

# Runs on datasets that went through a file and ``load_dataset``, so the loader
# feeds goldens too: "<scenario>@<format>" is the in-code scenario written in
# that format and read back.
LOADED_CHAIN_VARIANTS = (
    ("prio_traj", "lower_mean_unc", "standard"),
    ("prio_traj", "return", "sarsa"),
    ("uni_traj", "uniform", "weighted"),
)


def write_flat(ds, path: Path) -> None:
    """The dataset as a flat-transitions file, metadata line first."""
    header = {"state_count": ds.state_count, "action_count": ds.action_count,
              "discount": ds.discount}
    lines = [json.dumps(header)] + [
        json.dumps({"state": tr.state, "action": tr.action, "reward": tr.reward,
                    "next_state": tr.next_state, "terminal": tr.terminal, "timeout": timeout})
        for tr, timeout in flatten_trajectories(ds.trajectories)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reloaded(ds, format: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        if format == "flat-transitions":
            write_flat(ds, path)
        else:
            save_dataset(ds, path)
        return load_dataset(path)


@functools.cache
def dataset(name: str):
    if "@" in name:
        scenario, _, format = name.partition("@")
        return reloaded(dataset(scenario), format)
    if name.startswith("figure1-"):
        return make_figure1(name.removeprefix("figure1-"))
    if name == "chain-40":
        return make_random_chain(40, 1, 12, np.random.default_rng(2024),
                                 action_count=3, terminal_prob=0.7)
    if name == "chain-1000x10":
        return make_random_chain(1000, 10, 10, np.random.default_rng(100),
                                 action_count=4, terminal_prob=1.0)
    raise KeyError(name)


def golden_runs() -> dict[str, tuple[str, TrainConfig]]:
    runs = {}
    for scenario in ("figure1-sparse", "figure1-dense"):
        for sampler, metric, kind in FIG1_VARIANTS:
            for k in (1, 5):
                for seed in (0, 1):
                    config = TrainConfig(sampler=sampler, metric=metric,
                                         target=TargetKind(kind, 0.5), eta=0.5,
                                         ensemble_size=k, target_sync_period=10,
                                         total_steps=300, seed=seed)
                    runs[f"{scenario}/{sampler}-{metric}-{kind}/K{k}/seed{seed}"] = (
                        scenario, config)
    # K = 16 reads means whose column sums no longer match a row mean over
    # axis 0 (K >= 8), so these pin the column-mean reads of greedy actions,
    # curve values and targets.
    for scenario in ("figure1-sparse", "figure1-dense"):
        for sampler, kind in K16_VARIANTS:
            for seed in (0, 1):
                config = TrainConfig(sampler=sampler, target=TargetKind(kind, 0.5), eta=0.5,
                                     ensemble_size=16, target_sync_period=10,
                                     total_steps=300, seed=seed)
                runs[f"{scenario}/{sampler}-uniform-{kind}/K16/seed{seed}"] = (scenario, config)
    for metric in ("lower_mean_unc", "higher_uqm_unc"):
        for seed in (0, 1):
            config = TrainConfig(sampler="prio_traj", metric=metric, ensemble_size=5,
                                 batch_size=8, total_steps=200, seed=seed)
            runs[f"chain-40/prio_traj-{metric}/B8/K5/seed{seed}"] = ("chain-40", config)
    config = TrainConfig(sampler="uni_state", ensemble_size=5, batch_size=32,
                         total_steps=300, seed=0)
    runs["chain-1000x10/uni_state/B32/K5/seed0"] = ("chain-1000x10", config)
    for seed in (0, 1):
        config = TrainConfig(sampler="prio_state", ensemble_size=5, batch_size=32,
                             total_steps=300, seed=seed)
        runs[f"chain-1000x10/prio_state/B32/K5/seed{seed}"] = ("chain-1000x10", config)
    for format in ("trajectory-jsonl", "flat-transitions"):
        scenario = f"figure1-sparse@{format}"
        for sampler, metric, kind in FIG1_VARIANTS:
            config = TrainConfig(sampler=sampler, metric=metric, target=TargetKind(kind, 0.5),
                                 eta=0.5, ensemble_size=5, target_sync_period=10,
                                 total_steps=300, seed=0)
            runs[f"{scenario}/{sampler}-{metric}-{kind}/K5/seed0"] = (scenario, config)
    scenario = "chain-40@trajectory-jsonl"
    for sampler, metric, kind in LOADED_CHAIN_VARIANTS:
        config = TrainConfig(sampler=sampler, metric=metric, target=TargetKind(kind, 0.5),
                             ensemble_size=5, batch_size=8, total_steps=200, seed=0)
        runs[f"{scenario}/{sampler}-{metric}-{kind}/B8/K5/seed0"] = (scenario, config)
    return runs


def curve_digest(scenario: str, config: TrainConfig) -> str:
    return hashlib.sha256(train(dataset(scenario), config).curve.tobytes()).hexdigest()


GOLDENS = {
    "figure1-dense/uni_state-uniform-standard/K16/seed0":
        "7b677970bb6fed961cff56188f8d1028aebdc8f83a1d2b83483f4ebd3142a7b6",
    "figure1-dense/uni_state-uniform-standard/K16/seed1":
        "3d9a3ed0a1a6a0493858557f2a97e91794572c113bae9e1f4f85fbd7514fc4f1",
    "figure1-dense/uni_traj-uniform-standard/K16/seed0":
        "52e394598cc796293bdb558ac148be718c298f0fb3f316a380ce750416499782",
    "figure1-dense/uni_traj-uniform-standard/K16/seed1":
        "f3232abe312cd520a45e99a56c8c3677933f4b69e4b652ce4604feee843f6a64",
    "figure1-dense/uni_traj-uniform-weighted/K16/seed0":
        "d7dbd6f92ecf7fbc24f8d8103b8a5039b62b6168e763c33b9b365410c1914680",
    "figure1-dense/uni_traj-uniform-weighted/K16/seed1":
        "4678971c4900afcc1f33df7d7994c266cb49e11582a0c6ad172496453c461829",
    "figure1-sparse/uni_state-uniform-standard/K16/seed0":
        "2279cd97dc4490179065309d288902511d2363cbb0475e69f7c84f779b39128b",
    "figure1-sparse/uni_state-uniform-standard/K16/seed1":
        "76ab2107ff7c0ba192ff0587697d9fd2f14a04a3512f854055c90660b5617a5f",
    "figure1-sparse/uni_traj-uniform-standard/K16/seed0":
        "e37c8ce8c2f07533f69e40245fb7c5a14aa61f3c7eaddb687ade9b7efd551dc7",
    "figure1-sparse/uni_traj-uniform-standard/K16/seed1":
        "2687be736d11a64f835e28793450a7df80ec183c9ae8472ae5a571096b08c0d0",
    "figure1-sparse/uni_traj-uniform-weighted/K16/seed0":
        "9857e309cd1372d559e234c0fe95e4d064d59ff1b24ae6f204dee227a1c98859",
    "figure1-sparse/uni_traj-uniform-weighted/K16/seed1":
        "3bb9a50c19c9c56067026d75cc12357ba1cb937da951be8a83b01a05cbf77c4d",
    "chain-1000x10/uni_state/B32/K5/seed0":
        "6e255f1ffa3c00713765cdbda61a244e728dd5dec2dbbcd559373f224507a5ad",
    "chain-40/prio_traj-higher_uqm_unc/B8/K5/seed0":
        "1125d6e64fd5d65165ea9d39d4bbafe69e02b822d34fad02c81eb8ba197b0dde",
    "chain-40/prio_traj-higher_uqm_unc/B8/K5/seed1":
        "156d6db777f21cf7d18a81986a51eb1856d31189f619f6c5bc88f76c4570b89e",
    "chain-40/prio_traj-lower_mean_unc/B8/K5/seed0":
        "74cd05ed978dc32dc5cccfa7d1208f2799ddd4e505a6c9d503700ed40dc82293",
    "chain-40/prio_traj-lower_mean_unc/B8/K5/seed1":
        "e57c85b8dad203ad333d2b0ceeda9dc59424ea373f63f4f12244c0c428b61981",
    "figure1-dense/prio_state-uniform-standard/K1/seed0":
        "978f145ade91d4de7b9523a5112238b77675fa2c81e04323b8efaf981f7cc5a8",
    "figure1-dense/prio_state-uniform-standard/K1/seed1":
        "0b28d75afedcac7df5d78eef27352ae890d6485853de8455f65a13fc29086742",
    "figure1-dense/prio_state-uniform-standard/K5/seed0":
        "fcee97a294dcca8aa6f9655df56135ad40c2d602fb99439e2ffc2dce2a05b84c",
    "figure1-dense/prio_state-uniform-standard/K5/seed1":
        "4ca216d0254746e07e14d5ad604c9ae5f240564f09d8d8fe78e73c9a2b124f8d",
    "figure1-dense/prio_traj-return-sarsa/K1/seed0":
        "650ee4aa768eba5027f2788a17a59adb03c8b8f3302890745e84f0550381ceb7",
    "figure1-dense/prio_traj-return-sarsa/K1/seed1":
        "91eabab10a8c76c489c4008baff45e0cc881f16b5cad0c1ebc9c4c492582194b",
    "figure1-dense/prio_traj-return-sarsa/K5/seed0":
        "3d6cca9174ee3603285020cae276f23421856b82885cd0f52f5bdf3aa6102535",
    "figure1-dense/prio_traj-return-sarsa/K5/seed1":
        "4e87cc970fcb8fc24bb04deec62149344a42ee8e739163db7abcfd64ca887767",
    "figure1-dense/prio_traj-return-standard/K1/seed0":
        "110c3c4e53c325ba7c9797bceecdcdb9d91e293993cdef343704600cb698ce42",
    "figure1-dense/prio_traj-return-standard/K1/seed1":
        "d0c14949e5fe575ebfcbedaefeac6f1f7d8b1fb0c0479b6993f7877672d738c2",
    "figure1-dense/prio_traj-return-standard/K5/seed0":
        "ec00608e550aa2beb5c84b019cd629b980ea21e48af325d16e3e3284b6d87371",
    "figure1-dense/prio_traj-return-standard/K5/seed1":
        "39bdd8d64be7b71abab9bf561a09c83bf2db9339ad69049b6147a79d92b2e918",
    "figure1-dense/prio_traj-return-weighted/K1/seed0":
        "768c8895e8e445137886773f70b783cf3629f44ce6bb8ffa4069cfb8c8a66dab",
    "figure1-dense/prio_traj-return-weighted/K1/seed1":
        "b81855fa124ec905b084eb3978216b27771f74f7c26d05be12eefc302a695804",
    "figure1-dense/prio_traj-return-weighted/K5/seed0":
        "6c39aa4cd165ed5b7764ca9700f302466e6f08ea0c1e624c0508adab96e5fbbf",
    "figure1-dense/prio_traj-return-weighted/K5/seed1":
        "b111a5a97fe24e6ad1946b50672be7a2e27560a9c1c6d696bd6ca7c77b3b7570",
    "figure1-dense/uni_state-uniform-standard/K1/seed0":
        "23c0b881e2f1588af40c4d5ff45c1677e37aba13b23f997c706965cb356637fe",
    "figure1-dense/uni_state-uniform-standard/K1/seed1":
        "7bc93c4fe94402c99df2afab475381e79a5b00d5167e92f18aa9ab919fc05030",
    "figure1-dense/uni_state-uniform-standard/K5/seed0":
        "391d9531b6997b6070781a7a1b73a43aabdafec073a4dfdac68140030ebd3da2",
    "figure1-dense/uni_state-uniform-standard/K5/seed1":
        "199cd551d6d86f30040676010ffb38db91f83ac446a615d952deb1c5230f9f0f",
    "figure1-dense/uni_traj-uniform-sarsa/K1/seed0":
        "8c08555040dd617e858da3fce4b4377e82daffa7016739ea14b5c9d6f59d4df0",
    "figure1-dense/uni_traj-uniform-sarsa/K1/seed1":
        "69b0cfe82d584de84a968c1d9b705f692f52c93fe16127041e6ef34959e3e920",
    "figure1-dense/uni_traj-uniform-sarsa/K5/seed0":
        "65b3f601a8b44837ee52940f760e63f655af655117884334916a66751a4c0713",
    "figure1-dense/uni_traj-uniform-sarsa/K5/seed1":
        "8a990579d7a3a37209a345d5ffef54e36f255a6dc933910cf32b327180700421",
    "figure1-dense/uni_traj-uniform-standard/K1/seed0":
        "caac679d54820360cec19e6c75d51a8115e8ec03c6f9b69ef96ad048b2c9ef69",
    "figure1-dense/uni_traj-uniform-standard/K1/seed1":
        "62093f4e164c80a42b7364c57a5f421abb3443ca188af790945eaa080c7969e7",
    "figure1-dense/uni_traj-uniform-standard/K5/seed0":
        "fb75cbb40262a22a7b09b996f40c916e245e2f821bf98bb0eff1ee5cab186559",
    "figure1-dense/uni_traj-uniform-standard/K5/seed1":
        "e543297b81dadcaaf7bd3fd654c7cae7ec6eef88618e179ec3b986a34a42b901",
    "figure1-dense/uni_traj-uniform-weighted/K1/seed0":
        "864f1b775e5316f598b2da14fcfc668705df5afe7dc6dbaa64ead33d4b4583bc",
    "figure1-dense/uni_traj-uniform-weighted/K1/seed1":
        "b46cc1ff4847ac15d759d9cd5f0ed78700b0f6ef70056b2e5c46af764bb0bfd6",
    "figure1-dense/uni_traj-uniform-weighted/K5/seed0":
        "5cb8614bd1cd948451ec46aaf44b7dd3db5e93b5d559418cc85d3fe90d928de1",
    "figure1-dense/uni_traj-uniform-weighted/K5/seed1":
        "1efcc214e615371c3701d352b49054c3bbffad7c514591cf4c5dc45e8215559d",
    "figure1-sparse/prio_state-uniform-standard/K1/seed0":
        "9d92c01d375d7307679fb7e5ed7fb894d81c61db04979c9fbdb6ebe4451ec9e3",
    "figure1-sparse/prio_state-uniform-standard/K1/seed1":
        "4414dcd10b304d81b0cb25afb865f9773be772f03de79f5266af7300fd367039",
    "figure1-sparse/prio_state-uniform-standard/K5/seed0":
        "95afba346779d42eed6269afc6242d5154f22973dfb29119b516d0670e5d5fa1",
    "figure1-sparse/prio_state-uniform-standard/K5/seed1":
        "a35b10c25c3d177db9587563b3f777b9b16e070975ad0d6c5b453ed74fc72ceb",
    "figure1-sparse/prio_traj-return-sarsa/K1/seed0":
        "5b6b21341d792b969a94a0f3971bf4a46c7c8aad95f4590e7b3504f87bfa96cd",
    "figure1-sparse/prio_traj-return-sarsa/K1/seed1":
        "e723c4157a22c874c673ee77944a6dde068e3d9f739779fc3bdccfa3f71db639",
    "figure1-sparse/prio_traj-return-sarsa/K5/seed0":
        "5e814a94ea7309f8bc6075b3181be54d4e564d81c4eef07937d585c01c2472bd",
    "figure1-sparse/prio_traj-return-sarsa/K5/seed1":
        "55b914593f507d29a5167aa62a11ef45b374c0527effe64373910280463e7794",
    "figure1-sparse/prio_traj-return-standard/K1/seed0":
        "dd40cdbb116a8637be0db2c4ee83b097488428eb418727afd7e81e95ccc1009c",
    "figure1-sparse/prio_traj-return-standard/K1/seed1":
        "5469862f7ee3b6cc5bbba51cc6db0ffb3a8ec957fd377626d8b6b1d7b2a0f793",
    "figure1-sparse/prio_traj-return-standard/K5/seed0":
        "580d487965d6d1544966dc3b2892775665be420ef09b9bed0c32ebb0e0c8470d",
    "figure1-sparse/prio_traj-return-standard/K5/seed1":
        "c789fe4f73f8c37e513feef67503305e40d3e72a738fba2bcf64ea84ee1e7f1a",
    "figure1-sparse/prio_traj-return-weighted/K1/seed0":
        "73e6a814be24e6b4ac83f2c0ea645ebd59cff7da7e2b0872cc7d54664f85bea7",
    "figure1-sparse/prio_traj-return-weighted/K1/seed1":
        "cafe40f2d934691218a9ec1ea6e2703a2af7e5196de8849dffb257583cfe52c2",
    "figure1-sparse/prio_traj-return-weighted/K5/seed0":
        "bf7bfd8852185c6c04d5885640e1bc5e2eab7134301a0f8adb3a4991e165c80e",
    "figure1-sparse/prio_traj-return-weighted/K5/seed1":
        "82ce23aae415bee7250b5380106d8fab91c975f7ef30e1480d96bf7102f61f07",
    "figure1-sparse/uni_state-uniform-standard/K1/seed0":
        "248087b34f0d2201205e0fbe45a000e34808b044fb1dd6b1e9c0fc0237fb3d25",
    "figure1-sparse/uni_state-uniform-standard/K1/seed1":
        "037112df0466d0804823008ecde0e6f40a8528f3b33bcc9e2dc957f967cb1270",
    "figure1-sparse/uni_state-uniform-standard/K5/seed0":
        "1e93d352d2876b5e586977776a275270639fdb7d225240fb9d2864c169915a24",
    "figure1-sparse/uni_state-uniform-standard/K5/seed1":
        "6a5fecb2e925df950a4a478c789286f2db4781f0e534d4e61000fb4f053714fe",
    "figure1-sparse/uni_traj-uniform-sarsa/K1/seed0":
        "d8ecfb21b200748d7b5b350ade1acc25684da397d710a5521a664751e7c28969",
    "figure1-sparse/uni_traj-uniform-sarsa/K1/seed1":
        "791f803df4d0b1737d3219d87558d4e364c448deb480610f77a38aaf536326b7",
    "figure1-sparse/uni_traj-uniform-sarsa/K5/seed0":
        "423932bc4101398b04c7a1b9515629f85456f03325b4f31496a9d44896506ef8",
    "figure1-sparse/uni_traj-uniform-sarsa/K5/seed1":
        "ae7a93f20786264239c9bc76a88d8f04527bc10131275a09d64772d3f4a02160",
    "figure1-sparse/uni_traj-uniform-standard/K1/seed0":
        "42743a3ecc21929d3ad02155b8e06838cbf2b9511874f0e922dd81d9ed22ef31",
    "figure1-sparse/uni_traj-uniform-standard/K1/seed1":
        "ca23296e0380776fcfe27253861bb7622cc842ca703e9fc0f27160ab8b1811ca",
    "figure1-sparse/uni_traj-uniform-standard/K5/seed0":
        "aeb9a1feb5b06a3c09b4a7258f353a0442621cc85eeada53b4fb9ab2c0e919b9",
    "figure1-sparse/uni_traj-uniform-standard/K5/seed1":
        "833db208e9424e55a7e853ad43cdcca0ca860f893abe2a1ff1324abdf838d3d7",
    "figure1-sparse/uni_traj-uniform-weighted/K1/seed0":
        "e0bb15ae98e50316909be6835e9bc8384be2510b4ba137a22423f94140de9e03",
    "figure1-sparse/uni_traj-uniform-weighted/K1/seed1":
        "1746f38435bada55c182799bdc1295b157c42156fa26558a8c90d002ac94c20e",
    "figure1-sparse/uni_traj-uniform-weighted/K5/seed0":
        "8bbe9b65536d64e64b7db057b8dc8f690e23cc52c08aef6b9d4c77162521923e",
    "figure1-sparse/uni_traj-uniform-weighted/K5/seed1":
        "09aafc2b935048cf3fd93eef3477f60cecba2613acda2570f0ac4b362d34db2c",
    "chain-1000x10/prio_state/B32/K5/seed0":
        "652245ed3ca131f8de6e843a8d5d9a7ef251236235b8abfb97c955b704c8934e",
    "chain-1000x10/prio_state/B32/K5/seed1":
        "09938d134f71ad14403e59eb03bb175f75e2ad132bfe4ea4e421c02e98d9de34",
    "chain-40@trajectory-jsonl/prio_traj-lower_mean_unc-standard/B8/K5/seed0":
        "74cd05ed978dc32dc5cccfa7d1208f2799ddd4e505a6c9d503700ed40dc82293",
    "chain-40@trajectory-jsonl/prio_traj-return-sarsa/B8/K5/seed0":
        "f63377e6630967905e5e13f9f3863abe08916c93958fc6ab11007f58b2a3368e",
    "chain-40@trajectory-jsonl/uni_traj-uniform-weighted/B8/K5/seed0":
        "86af5d063fab1e654ee89d33bdbee8d08e836269e3ed877174da91bea2057baa",
    "figure1-sparse@flat-transitions/prio_state-uniform-standard/K5/seed0":
        "95afba346779d42eed6269afc6242d5154f22973dfb29119b516d0670e5d5fa1",
    "figure1-sparse@flat-transitions/prio_traj-return-sarsa/K5/seed0":
        "5e814a94ea7309f8bc6075b3181be54d4e564d81c4eef07937d585c01c2472bd",
    "figure1-sparse@flat-transitions/prio_traj-return-standard/K5/seed0":
        "580d487965d6d1544966dc3b2892775665be420ef09b9bed0c32ebb0e0c8470d",
    "figure1-sparse@flat-transitions/prio_traj-return-weighted/K5/seed0":
        "bf7bfd8852185c6c04d5885640e1bc5e2eab7134301a0f8adb3a4991e165c80e",
    "figure1-sparse@flat-transitions/uni_state-uniform-standard/K5/seed0":
        "1e93d352d2876b5e586977776a275270639fdb7d225240fb9d2864c169915a24",
    "figure1-sparse@flat-transitions/uni_traj-uniform-sarsa/K5/seed0":
        "423932bc4101398b04c7a1b9515629f85456f03325b4f31496a9d44896506ef8",
    "figure1-sparse@flat-transitions/uni_traj-uniform-standard/K5/seed0":
        "aeb9a1feb5b06a3c09b4a7258f353a0442621cc85eeada53b4fb9ab2c0e919b9",
    "figure1-sparse@flat-transitions/uni_traj-uniform-weighted/K5/seed0":
        "8bbe9b65536d64e64b7db057b8dc8f690e23cc52c08aef6b9d4c77162521923e",
    "figure1-sparse@trajectory-jsonl/prio_state-uniform-standard/K5/seed0":
        "95afba346779d42eed6269afc6242d5154f22973dfb29119b516d0670e5d5fa1",
    "figure1-sparse@trajectory-jsonl/prio_traj-return-sarsa/K5/seed0":
        "5e814a94ea7309f8bc6075b3181be54d4e564d81c4eef07937d585c01c2472bd",
    "figure1-sparse@trajectory-jsonl/prio_traj-return-standard/K5/seed0":
        "580d487965d6d1544966dc3b2892775665be420ef09b9bed0c32ebb0e0c8470d",
    "figure1-sparse@trajectory-jsonl/prio_traj-return-weighted/K5/seed0":
        "bf7bfd8852185c6c04d5885640e1bc5e2eab7134301a0f8adb3a4991e165c80e",
    "figure1-sparse@trajectory-jsonl/uni_state-uniform-standard/K5/seed0":
        "1e93d352d2876b5e586977776a275270639fdb7d225240fb9d2864c169915a24",
    "figure1-sparse@trajectory-jsonl/uni_traj-uniform-sarsa/K5/seed0":
        "423932bc4101398b04c7a1b9515629f85456f03325b4f31496a9d44896506ef8",
    "figure1-sparse@trajectory-jsonl/uni_traj-uniform-standard/K5/seed0":
        "aeb9a1feb5b06a3c09b4a7258f353a0442621cc85eeada53b4fb9ab2c0e919b9",
    "figure1-sparse@trajectory-jsonl/uni_traj-uniform-weighted/K5/seed0":
        "8bbe9b65536d64e64b7db057b8dc8f690e23cc52c08aef6b9d4c77162521923e",
}

RUNS = golden_runs()


def test_every_run_has_a_golden():
    assert sorted(GOLDENS) == sorted(RUNS)


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_curve_matches_golden(run_id):
    scenario, config = RUNS[run_id]
    assert curve_digest(scenario, config) == GOLDENS[run_id]


def test_batched_golden_run_repeats_a_pair(monkeypatch):
    """The B=32 golden covers batches that update one (s, a) twice."""
    repeats = []
    update = EnsembleQ.update

    def recording_update(self, states, actions, targets):
        pairs = list(zip(np.asarray(states).tolist(), np.asarray(actions).tolist()))
        repeats.append(len(set(pairs)) < len(pairs))
        return update(self, states, actions, targets)

    monkeypatch.setattr(EnsembleQ, "update", recording_update)
    scenario, config = RUNS["chain-1000x10/uni_state/B32/K5/seed0"]
    train(dataset(scenario), config)
    assert 0 < sum(repeats) < len(repeats)
