"""Golden runs: the bytes of ``train(...)``'s curve and final tables are a contract.

Each run below is pinned twice: by the SHA-256 of its curve's raw float64
bytes, and by that of its final member ``tables`` followed by its
``target_mean``.  The curve follows only the start state s0; the tables see a
wrong target anywhere in the data.  A change to a hot path (sampling, targets,
the ensemble update, priorities) must leave every digest unchanged; a change
that means to alter a run re-pins the affected digests and says why.
``tests/test_reference_trainer.py`` checks every digest against a plain
reference trainer too, so a pinned run is shown right, not only unchanged.
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

# (label, kind, beta) of the batched chain-40 runs: beta = 0 is the weighted
# rule's own exact recursion, not the blend
CHAIN_KINDS = (("standard", "standard", 0.5), ("sarsa", "sarsa", 0.5),
               ("weighted0.5", "weighted", 0.5), ("weighted0", "weighted", 0.0))

# (sampler, metric, kind, K) of the chain-40 runs at B = 40, its trajectory
# count; uni_state at K = 16 repeats pairs, so it pins occurrence rounds,
# some of one pair, whose means sum in order
FULL_BATCH_VARIANTS = (
    ("uni_traj", "uniform", "standard", 5),
    ("prio_traj", "lower_mean_unc", "sarsa", 5),
    ("uni_state", "uniform", "standard", 5),
    ("prio_state", "uniform", "standard", 5),
    ("uni_state", "uniform", "standard", 16),
)

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
    # K = 16 means sum the members in order where NumPy's own column mean
    # would sum pairwise (K >= 8), so these pin the mean reads of greedy
    # actions, curve values and targets.
    for scenario in ("figure1-sparse", "figure1-dense"):
        for sampler, kind in K16_VARIANTS:
            for seed in (0, 1):
                config = TrainConfig(sampler=sampler, target=TargetKind(kind, 0.5), eta=0.5,
                                     ensemble_size=16, target_sync_period=10,
                                     total_steps=300, seed=seed)
                runs[f"{scenario}/{sampler}-uniform-{kind}/K16/seed{seed}"] = (scenario, config)
    # K = 16 uncertainty runs pin the in-order member sums of uncertainty_values
    for metric, k in (("lower_mean_unc", 5), ("higher_uqm_unc", 5), ("lower_mean_unc", 16)):
        for seed in (0, 1):
            config = TrainConfig(sampler="prio_traj", metric=metric, ensemble_size=k,
                                 batch_size=8, total_steps=200, seed=seed)
            runs[f"chain-40/prio_traj-{metric}/B8/K{k}/seed{seed}"] = ("chain-40", config)
    config = TrainConfig(sampler="uni_state", ensemble_size=5, batch_size=32,
                         total_steps=300, seed=0)
    runs["chain-1000x10/uni_state/B32/K5/seed0"] = ("chain-1000x10", config)
    for seed in (0, 1):
        config = TrainConfig(sampler="prio_state", ensemble_size=5, batch_size=32,
                             total_steps=300, seed=seed)
        runs[f"chain-1000x10/prio_state/B32/K5/seed{seed}"] = ("chain-1000x10", config)
    # Batched runs of every sampler and kind: figure-1's s0 starts every
    # trajectory, so its curve sees all of them.
    for scenario in ("figure1-sparse", "figure1-dense"):
        for sampler, metric, kind in FIG1_VARIANTS:
            for b in (2, 3):
                config = TrainConfig(sampler=sampler, metric=metric,
                                     target=TargetKind(kind, 0.5), eta=0.5, ensemble_size=5,
                                     batch_size=b, target_sync_period=10, total_steps=300,
                                     seed=0)
                runs[f"{scenario}/{sampler}-{metric}-{kind}/B{b}/K5/seed0"] = (scenario, config)
    for label, kind, beta in CHAIN_KINDS:
        for k in (5, 16):
            for sync in (1, 10):
                config = TrainConfig(sampler="uni_traj", target=TargetKind(kind, beta),
                                     ensemble_size=k, batch_size=8, target_sync_period=sync,
                                     total_steps=200, seed=0)
                runs[f"chain-40/uni_traj-{label}/B8/K{k}/sync{sync}/seed0"] = ("chain-40", config)
    # B = n: every refill rebuilds the pool, and several slots vacate in one call
    for sampler, metric, kind, k in FULL_BATCH_VARIANTS:
        config = TrainConfig(sampler=sampler, metric=metric, target=TargetKind(kind, 0.5),
                             ensemble_size=k, batch_size=40, target_sync_period=10,
                             total_steps=200, seed=0)
        runs[f"chain-40/{sampler}-{metric}-{kind}/B40/K{k}/seed0"] = ("chain-40", config)
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


@functools.cache
def digests(run_id: str) -> tuple[str, str]:
    """The SHA-256 of a run's curve, and of its final tables and target mean."""
    scenario, config = RUNS[run_id]
    result = train(dataset(scenario), config)
    ens = result.ensemble
    tables = hashlib.sha256(ens.tables.tobytes())
    tables.update(ens.target_mean.tobytes())
    return hashlib.sha256(result.curve.tobytes()).hexdigest(), tables.hexdigest()


GOLDENS = {
    "figure1-dense/uni_state-uniform-standard/K16/seed0":
        "e95264db62306727a121a5efd81702d7e94b75cc78e5f1c71588bc8656520111",
    "figure1-dense/uni_state-uniform-standard/K16/seed1":
        "6ce92f77b7b063e8e99285b047eaf583f08640a67654527ecda7cdd459037827",
    "figure1-dense/uni_traj-uniform-standard/K16/seed0":
        "c370173831b4aebaffd7e1469093e7c7ed46e384b0f5b519dedd5001da77ad1c",
    "figure1-dense/uni_traj-uniform-standard/K16/seed1":
        "2c8ce33574593985237d27ca59aa91f4308eddd6905663b96889be8adadf1fef",
    "figure1-dense/uni_traj-uniform-weighted/K16/seed0":
        "d4e289b8a5a8d98d91e0bf5c515a3db50ba5f9956c508d0a4f6d9f7df477a2ba",
    "figure1-dense/uni_traj-uniform-weighted/K16/seed1":
        "d71cc43e091355dfd22e349a2306efc77cca634e028f6348be31b3900343d5f4",
    "figure1-sparse/uni_state-uniform-standard/K16/seed0":
        "61e99ddeb792c47364032d882590d69c731023578fe3606b30b0de0d061db101",
    "figure1-sparse/uni_state-uniform-standard/K16/seed1":
        "37202f38953fdeec17392ad5008ae3ae5bc7ea7c6fb0c2a73d7f13110d5cce76",
    "figure1-sparse/uni_traj-uniform-standard/K16/seed0":
        "e2bd45a18eb3d8ce7c876f5ff251542558a27d519bdebdadd092e51de370f25f",
    "figure1-sparse/uni_traj-uniform-standard/K16/seed1":
        "1834fe9cea816a22dbc00f66e7bdc14e84ba96a9273861a5aa5d87a993649af2",
    "figure1-sparse/uni_traj-uniform-weighted/K16/seed0":
        "40a98b7d3a8e5c1e842d785bdf065d0921b0018abacf501a99c9534f36bde5a0",
    "figure1-sparse/uni_traj-uniform-weighted/K16/seed1":
        "9255fa4fdfd684a676fa7fdaacc49059af4d01d08d43cf49f2f6cdf71d7a568a",
    "chain-1000x10/uni_state/B32/K5/seed0":
        "6e255f1ffa3c00713765cdbda61a244e728dd5dec2dbbcd559373f224507a5ad",
    "chain-40/prio_traj-higher_uqm_unc/B8/K5/seed0":
        "1125d6e64fd5d65165ea9d39d4bbafe69e02b822d34fad02c81eb8ba197b0dde",
    "chain-40/prio_traj-higher_uqm_unc/B8/K5/seed1":
        "156d6db777f21cf7d18a81986a51eb1856d31189f619f6c5bc88f76c4570b89e",
    "chain-40/prio_traj-lower_mean_unc/B8/K16/seed0":
        "8530a9cecd34671403a8d3dda11c7e24f4fac5ed956395b5fcf313afb70919d9",
    "chain-40/prio_traj-lower_mean_unc/B8/K16/seed1":
        "9939f3f0e806a833712a4197383d648888f1e9c1514154948f3d7015047da3ec",
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
    "chain-40/uni_traj-sarsa/B8/K16/sync1/seed0":
        "71f9d7d8b34f0f9fc82fb9ed1f5e3e68e0db1fbee62b253054df55e09c59bad5",
    "chain-40/uni_traj-sarsa/B8/K16/sync10/seed0":
        "71f9d7d8b34f0f9fc82fb9ed1f5e3e68e0db1fbee62b253054df55e09c59bad5",
    "chain-40/uni_traj-sarsa/B8/K5/sync1/seed0":
        "e2457287106ed32d17ca91a569ff27665e263b30b671dcba801c467938f64826",
    "chain-40/uni_traj-sarsa/B8/K5/sync10/seed0":
        "e2457287106ed32d17ca91a569ff27665e263b30b671dcba801c467938f64826",
    "chain-40/uni_traj-standard/B8/K16/sync1/seed0":
        "06fe896a3255f002640ab995d9d7517c38dbae2abb937ad30946e8bd372d441d",
    "chain-40/uni_traj-standard/B8/K16/sync10/seed0":
        "e007035877eb2669cbb66e6b4c3fd7d9682fc161ae3fe8e9ec06e411c1a2feda",
    "chain-40/uni_traj-standard/B8/K5/sync1/seed0":
        "e44602797e63a014387171ae0600e8b0bf13088b257e17331043cb2106bd7f14",
    "chain-40/uni_traj-standard/B8/K5/sync10/seed0":
        "0d3dcef1022f71331a59012fbaa190b0c337aa489a4e04304e44df50170ee00e",
    "chain-40/uni_traj-weighted0.5/B8/K16/sync1/seed0":
        "4474b8c76d3619d0625697d4d98589f1b71a14080b52680e5908537aabd818b7",
    "chain-40/uni_traj-weighted0.5/B8/K16/sync10/seed0":
        "f63c603e134b79f3cc304825f24abaa06f6cf882cc68075c19acbf1a6972ad8d",
    "chain-40/uni_traj-weighted0.5/B8/K5/sync1/seed0":
        "f235022186599fbec4625908584e10ed69b433b784c0109ce7d2f1b5672092f2",
    "chain-40/uni_traj-weighted0.5/B8/K5/sync10/seed0":
        "c0e92c8461ed8c28d93ba0ce4575e89e7049b0debfd612499d66a8fe9acaa918",
    "chain-40/uni_traj-weighted0/B8/K16/sync1/seed0":
        "71f9d7d8b34f0f9fc82fb9ed1f5e3e68e0db1fbee62b253054df55e09c59bad5",
    "chain-40/uni_traj-weighted0/B8/K16/sync10/seed0":
        "71f9d7d8b34f0f9fc82fb9ed1f5e3e68e0db1fbee62b253054df55e09c59bad5",
    "chain-40/uni_traj-weighted0/B8/K5/sync1/seed0":
        "e2457287106ed32d17ca91a569ff27665e263b30b671dcba801c467938f64826",
    "chain-40/uni_traj-weighted0/B8/K5/sync10/seed0":
        "e2457287106ed32d17ca91a569ff27665e263b30b671dcba801c467938f64826",
    "figure1-dense/prio_state-uniform-standard/B2/K5/seed0":
        "ea7083867018d5bb2939ef4fee6d91c4619083899241fd5fa9146e78640893db",
    "figure1-dense/prio_state-uniform-standard/B3/K5/seed0":
        "f4e29485f586b754e57f08d709c18a644120955fbd1a7f25d0b79d8d94d0472d",
    "figure1-dense/prio_traj-return-sarsa/B2/K5/seed0":
        "e2e06031051904bec3e7758c39589940602889ab2e6fd459781be625753b3779",
    "figure1-dense/prio_traj-return-sarsa/B3/K5/seed0":
        "b7c78ce2e9408250374d555c943a2376fc5fddcf66007e5ef0e167da7c583ed6",
    "figure1-dense/prio_traj-return-standard/B2/K5/seed0":
        "1c23a4155dab9df2feb5b9a82d4db943c81b00454eddb799f1b7e59088a678d6",
    "figure1-dense/prio_traj-return-standard/B3/K5/seed0":
        "4ae757a64fa9a29443871f606f1c5b44ae9807d7e58c0b740610237c686c201e",
    "figure1-dense/prio_traj-return-weighted/B2/K5/seed0":
        "2a9b60bc27dd9fa0a0c7bc72f2367c24b20953ec986902d0a440ca1b70cdab73",
    "figure1-dense/prio_traj-return-weighted/B3/K5/seed0":
        "e4a5f8346ec3684d748e47bffb9a6e27166556fc3ca65f9666be879bb680d208",
    "figure1-dense/uni_state-uniform-standard/B2/K5/seed0":
        "2faee971fc740e11899c41d9589456d7bed587f6592bb9ec14b1cb47f571d34b",
    "figure1-dense/uni_state-uniform-standard/B3/K5/seed0":
        "e8cc7580c99169a3b6a32c52a6939f7260b50fa32a274be3c8166e3449cedd9a",
    "figure1-dense/uni_traj-uniform-sarsa/B2/K5/seed0":
        "6fa34e23340b027c22858470ababaa2d1aeb800faa5303ac0970a2a8ce74c009",
    "figure1-dense/uni_traj-uniform-sarsa/B3/K5/seed0":
        "b7c78ce2e9408250374d555c943a2376fc5fddcf66007e5ef0e167da7c583ed6",
    "figure1-dense/uni_traj-uniform-standard/B2/K5/seed0":
        "20f84bc8ac54c330a8f149d53693fc50d8a2f65efd7bf1de9f28e63af1bd1cf9",
    "figure1-dense/uni_traj-uniform-standard/B3/K5/seed0":
        "4ae757a64fa9a29443871f606f1c5b44ae9807d7e58c0b740610237c686c201e",
    "figure1-dense/uni_traj-uniform-weighted/B2/K5/seed0":
        "80503c0350717105b4281779bd51d2146b737cecbd95f60787bd25662f10b578",
    "figure1-dense/uni_traj-uniform-weighted/B3/K5/seed0":
        "e4a5f8346ec3684d748e47bffb9a6e27166556fc3ca65f9666be879bb680d208",
    "figure1-sparse/prio_state-uniform-standard/B2/K5/seed0":
        "627b67016d0a8311d53b584b2510478d40ca663b894fd8dd843c20902864913a",
    "figure1-sparse/prio_state-uniform-standard/B3/K5/seed0":
        "a0e577b1ed496cbecf86ddb02a4072cdd99d8afc0bc7988f21e74d3dcd64b8a6",
    "figure1-sparse/prio_traj-return-sarsa/B2/K5/seed0":
        "d2563bd49cbcd3ec7a60160551a25d5ff534de72655e7800ece3185159ce8d0c",
    "figure1-sparse/prio_traj-return-sarsa/B3/K5/seed0":
        "18799ea01fa013c3dfbd80902d27d5a5275bf1f745cfe856211a98eff86ac2b9",
    "figure1-sparse/prio_traj-return-standard/B2/K5/seed0":
        "06a042cb5330843cc256656f43a03b34cdca5b81969a79292ae6168631c7b8b7",
    "figure1-sparse/prio_traj-return-standard/B3/K5/seed0":
        "f6dff1678bf6590ff4fc7410bba1fa264b4e18601e90d5f41ef3720d5bf6e6bc",
    "figure1-sparse/prio_traj-return-weighted/B2/K5/seed0":
        "7a7b45d32c1d4598a9601fd8562702e8d5571fa258a1e6ffbfc7c87c19366c1e",
    "figure1-sparse/prio_traj-return-weighted/B3/K5/seed0":
        "6e8c7c1185ff3d9be6eaa80485387e2ad4fe273d12b817bf0719163003d3838d",
    "figure1-sparse/uni_state-uniform-standard/B2/K5/seed0":
        "dde58551bbd8ca7bb6410252cbdbd0e4792b5694c326e3675924934bdb0fbdb6",
    "figure1-sparse/uni_state-uniform-standard/B3/K5/seed0":
        "d7aadc51d2e12208f252ac2787b0c446877da8dcbcc5186b7f4d4eb76248f0c8",
    "figure1-sparse/uni_traj-uniform-sarsa/B2/K5/seed0":
        "478699c3ff26acabadbf9cfa33017b7d15e5d336d90a9e3c33fd30b0432df1ee",
    "figure1-sparse/uni_traj-uniform-sarsa/B3/K5/seed0":
        "18799ea01fa013c3dfbd80902d27d5a5275bf1f745cfe856211a98eff86ac2b9",
    "figure1-sparse/uni_traj-uniform-standard/B2/K5/seed0":
        "a9dba64bea244646522fe10dd2b46f70e467d9606b66a12a06cc43bf64d92d44",
    "figure1-sparse/uni_traj-uniform-standard/B3/K5/seed0":
        "f6dff1678bf6590ff4fc7410bba1fa264b4e18601e90d5f41ef3720d5bf6e6bc",
    "figure1-sparse/uni_traj-uniform-weighted/B2/K5/seed0":
        "98534a2ad8b3cedecab9d142a030332f743c324027ec93b0c09d491ecf3b4f4a",
    "figure1-sparse/uni_traj-uniform-weighted/B3/K5/seed0":
        "6e8c7c1185ff3d9be6eaa80485387e2ad4fe273d12b817bf0719163003d3838d",
    "chain-40/prio_state-uniform-standard/B40/K5/seed0":
        "cdf8ec83b4678d87e191cd2bac400b9248f3eb25ba859124a1ed6e6a6ed17ab1",
    "chain-40/prio_traj-lower_mean_unc-sarsa/B40/K5/seed0":
        "0363a75b91155c5f43818f2da20c4e4a0f2356e2c51f630014b7b3590a9bb268",
    "chain-40/uni_state-uniform-standard/B40/K16/seed0":
        "794268efc8d5a8b3ed2bc2d857481f3bf3d5837228426f6742c348e1564d5f94",
    "chain-40/uni_state-uniform-standard/B40/K5/seed0":
        "609e5db91bdf3a4202997559338e54520fd2fca95e06f63af7863e2f641cba0c",
    "chain-40/uni_traj-uniform-standard/B40/K5/seed0":
        "18180b56718ed0fe79c534035932c11fa1bd41ee59751d87d3e836dc60945638",
}

TABLE_GOLDENS = {
    "chain-1000x10/prio_state/B32/K5/seed0":
        "b1c57901ee5182a254d32c94ca0ae56282a6f25efa6d1427ef1d5d05e45053b2",
    "chain-1000x10/prio_state/B32/K5/seed1":
        "10650cc1bbab5c121865e78f3d415d5196d215bc60fc9f8d2de0053e5e1666bb",
    "chain-1000x10/uni_state/B32/K5/seed0":
        "baa5561af232c24b74e74eb0e4b22ae44f1338a7d5fcafcc243a15bb659564af",
    "chain-40/prio_traj-higher_uqm_unc/B8/K5/seed0":
        "bf31ac8d3aae7a79b7e679f9f3f06eb9797b7771933bc5d0db29d1686e12715d",
    "chain-40/prio_traj-higher_uqm_unc/B8/K5/seed1":
        "d8dbd9097813e343a444676b613654f3f90f425d025d406c17bddfd50bb5f7b6",
    "chain-40/prio_traj-lower_mean_unc/B8/K16/seed0":
        "339c1493050edfd764a12d460b01ee583cb01c4081e2ebd4ca9341cc0d186d98",
    "chain-40/prio_traj-lower_mean_unc/B8/K16/seed1":
        "2b30df611257cc28c314be1376f2320b4d04d572173c4a1377d7b1c71fca38ff",
    "chain-40/prio_traj-lower_mean_unc/B8/K5/seed0":
        "a086662c15f70bab05e1dd8acbb4ee261b17ee8808001703c78558bc3222dd6d",
    "chain-40/prio_traj-lower_mean_unc/B8/K5/seed1":
        "76a7466b95387e5b9ecb7bc9901f83077777926e38d8ed92da0271496b93ff4e",
    "chain-40/uni_traj-sarsa/B8/K16/sync1/seed0":
        "005bee6d232c4ab76fd1496700a40138032e8aa8095b7b5a4aa0f974449486b3",
    "chain-40/uni_traj-sarsa/B8/K16/sync10/seed0":
        "005bee6d232c4ab76fd1496700a40138032e8aa8095b7b5a4aa0f974449486b3",
    "chain-40/uni_traj-sarsa/B8/K5/sync1/seed0":
        "eb1dc95361c1f903273fa4bf2e86b34292b8f8644163f87c8a6f3a05c022910b",
    "chain-40/uni_traj-sarsa/B8/K5/sync10/seed0":
        "eb1dc95361c1f903273fa4bf2e86b34292b8f8644163f87c8a6f3a05c022910b",
    "chain-40/uni_traj-standard/B8/K16/sync1/seed0":
        "c5130defaece678bc7d7c669470bd666f69178d612013608894f306beb70ea61",
    "chain-40/uni_traj-standard/B8/K16/sync10/seed0":
        "ed2d971ece286ba5a6b7eead0c01f28ce04c70b86bb15b009ce6af694b7d7ba6",
    "chain-40/uni_traj-standard/B8/K5/sync1/seed0":
        "b880473d994a803251972b1e39c37d54c7bc5595c2c214ff89b7250ef7307069",
    "chain-40/uni_traj-standard/B8/K5/sync10/seed0":
        "d4d9cd78318496567a6c052417af2e5d48f9fa9d04637ab2022109356294ea0e",
    "chain-40/uni_traj-weighted0.5/B8/K16/sync1/seed0":
        "9070846d9fd816d0c0d687b629630f53f9f62b644257527f0308b034c97ecc89",
    "chain-40/uni_traj-weighted0.5/B8/K16/sync10/seed0":
        "ff3fb825dcca332e1e242852290db7696d35c5ce6e8086bad34178d079f02750",
    "chain-40/uni_traj-weighted0.5/B8/K5/sync1/seed0":
        "b49578f346f69ceb35401f33460f911902c1e4312e20eb6aa6012c0ed964607a",
    "chain-40/uni_traj-weighted0.5/B8/K5/sync10/seed0":
        "8e36ba48126285ee81269709c82f6035a9d263ec58fc2ccab80c1bac3d9bca3f",
    "chain-40/uni_traj-weighted0/B8/K16/sync1/seed0":
        "005bee6d232c4ab76fd1496700a40138032e8aa8095b7b5a4aa0f974449486b3",
    "chain-40/uni_traj-weighted0/B8/K16/sync10/seed0":
        "005bee6d232c4ab76fd1496700a40138032e8aa8095b7b5a4aa0f974449486b3",
    "chain-40/uni_traj-weighted0/B8/K5/sync1/seed0":
        "eb1dc95361c1f903273fa4bf2e86b34292b8f8644163f87c8a6f3a05c022910b",
    "chain-40/uni_traj-weighted0/B8/K5/sync10/seed0":
        "eb1dc95361c1f903273fa4bf2e86b34292b8f8644163f87c8a6f3a05c022910b",
    "chain-40@trajectory-jsonl/prio_traj-lower_mean_unc-standard/B8/K5/seed0":
        "a086662c15f70bab05e1dd8acbb4ee261b17ee8808001703c78558bc3222dd6d",
    "chain-40@trajectory-jsonl/prio_traj-return-sarsa/B8/K5/seed0":
        "d7ee9faa5118bbe7a9fd4dbdc7b6f359f009670ffc8eac72fe053467efcf353f",
    "chain-40@trajectory-jsonl/uni_traj-uniform-weighted/B8/K5/seed0":
        "18d1406688e78ae7d78797518ea4ffb25054a592714f36f613916b900088a00c",
    "figure1-dense/prio_state-uniform-standard/B2/K5/seed0":
        "b16f90f1aac9b642f0de6f109a70ff8ea4b070d940d9d4f8375921b318fd8bbc",
    "figure1-dense/prio_state-uniform-standard/B3/K5/seed0":
        "2b5453c2f9af1072c6b6b4fe171ca599ec54f789bc3393e5bb13c793d57dfb49",
    "figure1-dense/prio_state-uniform-standard/K1/seed0":
        "e57a34040f1ec1ae26f913bb18f2c7fa7f475d4a6c8bd59ecb96a90f650d4a21",
    "figure1-dense/prio_state-uniform-standard/K1/seed1":
        "db54041dc4ac683fc360415274f1ab4391eee1f33661c7ae642a961741c0a6e1",
    "figure1-dense/prio_state-uniform-standard/K5/seed0":
        "cb83355ca6a6418f85dcb4326d4b2968281b13aa370bf2694657cd4504a68d74",
    "figure1-dense/prio_state-uniform-standard/K5/seed1":
        "77b3de43d5ec9b9afac7cbbad2d68f117d16b34c2532da5cba4fdb420a6459a1",
    "figure1-dense/prio_traj-return-sarsa/B2/K5/seed0":
        "0fd59a8e6879c80db246e2b9b4c1fe425d7277fa882ba28d8f048ab7495b1277",
    "figure1-dense/prio_traj-return-sarsa/B3/K5/seed0":
        "125646d6afe6a9773093a94e7458ab5dc39e8e4a3c843c13d463b5782e38ff1d",
    "figure1-dense/prio_traj-return-sarsa/K1/seed0":
        "de7d03b46ca8ede27bae41884f7d61384c4458471b0a9ed566d9f49763176809",
    "figure1-dense/prio_traj-return-sarsa/K1/seed1":
        "222d7da0f0a44ecf3017c9f014dfadad3a1366f5105bab05bac521853795d860",
    "figure1-dense/prio_traj-return-sarsa/K5/seed0":
        "10f8a9cf08c0e88a492fe069f85623ca98b05807eedf75d22cdcad827b60890c",
    "figure1-dense/prio_traj-return-sarsa/K5/seed1":
        "90922f2b46fa94852a583ac506e1ac1ccb64a218bdfbc31970c6cf342f9afc25",
    "figure1-dense/prio_traj-return-standard/B2/K5/seed0":
        "21ef79ae5ffe375e575575bca956d4829600afd57c647c4c8240bda2edda6933",
    "figure1-dense/prio_traj-return-standard/B3/K5/seed0":
        "0bb04818374dff2354c049237fe0faed52f000eb7615655399d4e649ae95d5c6",
    "figure1-dense/prio_traj-return-standard/K1/seed0":
        "455c2f9ad17109f310e6555c0ae157f2ade5ab46e5c914a1db1bb5edb3e58161",
    "figure1-dense/prio_traj-return-standard/K1/seed1":
        "2d58f2d1457f42ba981eab22e1b0a12bd5f4bca09b74a9d334630fec35b1bbc8",
    "figure1-dense/prio_traj-return-standard/K5/seed0":
        "24931fdbbea5782e740eb557949c218481f704b06eeadee4aed9d7b287735eb7",
    "figure1-dense/prio_traj-return-standard/K5/seed1":
        "e346d56f669cd6ca239f0b53607a4a386060209dadea582f3691bd1c37c81b41",
    "figure1-dense/prio_traj-return-weighted/B2/K5/seed0":
        "25ee338e034baa209f21dc3abac08ec5962c2536727c221896f39d722f97db9b",
    "figure1-dense/prio_traj-return-weighted/B3/K5/seed0":
        "9f355539b5f27a009d6edb6bafce49403ab2c7526cf4244ef5f3ada74d0dc13f",
    "figure1-dense/prio_traj-return-weighted/K1/seed0":
        "03fafd629d8201b62cdaba394920d531379095392ddbd013356a421cf94d7cbf",
    "figure1-dense/prio_traj-return-weighted/K1/seed1":
        "e67553e8ad9188b2d113c3c8b0a29a09e489183317536ee2debfbd5a8d5e096d",
    "figure1-dense/prio_traj-return-weighted/K5/seed0":
        "939e6709d05d090042e0eb61a9a6fb8b93d08f63c9b5f23df3e050594e758516",
    "figure1-dense/prio_traj-return-weighted/K5/seed1":
        "4dd4fbb5cf6e00b8461543e0fc4ab643aa77c1a5f424f6a5b07d2257e97de0d4",
    "figure1-dense/uni_state-uniform-standard/B2/K5/seed0":
        "80e9e57f62799c77cb5130073f21a35f1c5617d4e3a839ff03ae74d5aa60a987",
    "figure1-dense/uni_state-uniform-standard/B3/K5/seed0":
        "deaa42e2b9c2ce7464ed010dcea1e6309f387ba5efcbab283726c88b21b3c010",
    "figure1-dense/uni_state-uniform-standard/K1/seed0":
        "b2d8c7441526b002c7741d101256cc0110568ebb7cf9b15c33d3e261170afca1",
    "figure1-dense/uni_state-uniform-standard/K1/seed1":
        "bad6f5750ed9372a42264bf44b2bca2c06c32b0019ded4a87108e772339dafdf",
    "figure1-dense/uni_state-uniform-standard/K16/seed0":
        "0cc68a0089e8f28e95ed9173920d7eedd3b7ee978ae6e57fa9b734a171e38d44",
    "figure1-dense/uni_state-uniform-standard/K16/seed1":
        "8b77c6dc16a8a71234b0cce9a5d09da32ea56f575373e2be662b954614cdb688",
    "figure1-dense/uni_state-uniform-standard/K5/seed0":
        "82d19076d274642cda4165087c0c77cb134041a03fec676f9f34e0b498bf571e",
    "figure1-dense/uni_state-uniform-standard/K5/seed1":
        "cab0b1194560bf099716ecafc32a0b3fe54bed4b1ec9f8e5d668c1ecd665a749",
    "figure1-dense/uni_traj-uniform-sarsa/B2/K5/seed0":
        "c9bd266e6e5e34473944ef6eae9319192f1ec338a1b6d6cbd7d79cd2c6727c34",
    "figure1-dense/uni_traj-uniform-sarsa/B3/K5/seed0":
        "125646d6afe6a9773093a94e7458ab5dc39e8e4a3c843c13d463b5782e38ff1d",
    "figure1-dense/uni_traj-uniform-sarsa/K1/seed0":
        "de7d03b46ca8ede27bae41884f7d61384c4458471b0a9ed566d9f49763176809",
    "figure1-dense/uni_traj-uniform-sarsa/K1/seed1":
        "222d7da0f0a44ecf3017c9f014dfadad3a1366f5105bab05bac521853795d860",
    "figure1-dense/uni_traj-uniform-sarsa/K5/seed0":
        "10f8a9cf08c0e88a492fe069f85623ca98b05807eedf75d22cdcad827b60890c",
    "figure1-dense/uni_traj-uniform-sarsa/K5/seed1":
        "90922f2b46fa94852a583ac506e1ac1ccb64a218bdfbc31970c6cf342f9afc25",
    "figure1-dense/uni_traj-uniform-standard/B2/K5/seed0":
        "b48fad9900210ab19e665363d22fda5dd983c04a2400e1818a556d5b6b96b05c",
    "figure1-dense/uni_traj-uniform-standard/B3/K5/seed0":
        "0bb04818374dff2354c049237fe0faed52f000eb7615655399d4e649ae95d5c6",
    "figure1-dense/uni_traj-uniform-standard/K1/seed0":
        "bc232b87e90deceacc10b51b7feee236fb55a266eae1bfad830cb2f0d1915c51",
    "figure1-dense/uni_traj-uniform-standard/K1/seed1":
        "4e5104c87437823530ad4c04c9a2a955974227a88c530ec641e2b5c29da310be",
    "figure1-dense/uni_traj-uniform-standard/K16/seed0":
        "e9d1d0d2f43ade77697b6530f64a034adfb1e2aa0f53a807566f3adb83ce3a52",
    "figure1-dense/uni_traj-uniform-standard/K16/seed1":
        "9ad106f7ba516adeefabb793304fb4f81c561903c17994c9f99a211ab504df05",
    "figure1-dense/uni_traj-uniform-standard/K5/seed0":
        "e24688d8f9c4464fc81fef76d6c006c113f226344cb6ece01eda47964d1046b8",
    "figure1-dense/uni_traj-uniform-standard/K5/seed1":
        "5b4f899f695ace8720f5d033bba4058c1b3d60407e4d48611b5104da4a573e82",
    "figure1-dense/uni_traj-uniform-weighted/B2/K5/seed0":
        "94ed2a2b8c6722af2787818aade02eb22ec1af8740d2ee9b810692b69241b371",
    "figure1-dense/uni_traj-uniform-weighted/B3/K5/seed0":
        "9f355539b5f27a009d6edb6bafce49403ab2c7526cf4244ef5f3ada74d0dc13f",
    "figure1-dense/uni_traj-uniform-weighted/K1/seed0":
        "59cf3ca1299e5490c0b406cd8d8d647612a4cbda1730dcd9606a8a7feda566be",
    "figure1-dense/uni_traj-uniform-weighted/K1/seed1":
        "33965b378d15b5475506cdbaf54cc4890dcbdd7b812b807e6c46ec4f5e7d9208",
    "figure1-dense/uni_traj-uniform-weighted/K16/seed0":
        "bcb1afb3be325ac8b9327efc96f0b1192c43ea0540b40b48b3152181fec94db8",
    "figure1-dense/uni_traj-uniform-weighted/K16/seed1":
        "d96683d230ed6b2f095496e71bdad303aa211f0915e6c03332796845314d62e0",
    "figure1-dense/uni_traj-uniform-weighted/K5/seed0":
        "1047c7cdc60168b79c65d2fbb883f173b6e9cd2c5360ee5ac160e238a5918c00",
    "figure1-dense/uni_traj-uniform-weighted/K5/seed1":
        "0db644c6a9b1059892e2295d58a19e932b7f58a4f93bf9c25d3ba4a3c30e4fd4",
    "figure1-sparse/prio_state-uniform-standard/B2/K5/seed0":
        "2a0cf5153ef23a32351474f32afdd1c9e261f5042b7130392bcd0431be3f7be8",
    "figure1-sparse/prio_state-uniform-standard/B3/K5/seed0":
        "617f1884e42f6642bd7e48cf078288ef96d98d737d2e84b8fd92f2695c2f9e0f",
    "figure1-sparse/prio_state-uniform-standard/K1/seed0":
        "90a4becd8d8da6bd1f289f0267f3cfd4cc9cdc90a61d9383e398f9d849f8c5c1",
    "figure1-sparse/prio_state-uniform-standard/K1/seed1":
        "720d042ceae5989f6709d0732dd23622d7fe9f703224f28bbbc938ce135b76c3",
    "figure1-sparse/prio_state-uniform-standard/K5/seed0":
        "11d54fb11a8bbcde3136a072d2ce67135d131e489484a4266227f107b77b1e9c",
    "figure1-sparse/prio_state-uniform-standard/K5/seed1":
        "d085271f9972a0e75da7c8fd80fdabd3435a1045f0254d0ddbbcb1e7cfdb9c3f",
    "figure1-sparse/prio_traj-return-sarsa/B2/K5/seed0":
        "8fea0585924cd96d4ed964c95510672328b39894890cd3867f637b33dc5560cd",
    "figure1-sparse/prio_traj-return-sarsa/B3/K5/seed0":
        "cddd0a11f17df1144939f1a45d43298da642c1fc7a8a36b780b5669f1dc34eec",
    "figure1-sparse/prio_traj-return-sarsa/K1/seed0":
        "aeeab7bf0b3680f3b7fc0e4c5fd7211b000c8ef343d672cc5daf14df8013b28c",
    "figure1-sparse/prio_traj-return-sarsa/K1/seed1":
        "1637c2bb02293a1a22d12bd11d146f7dba750b0ab2272a1342c67b8ea12a3eda",
    "figure1-sparse/prio_traj-return-sarsa/K5/seed0":
        "aaee8bb2ab010997232a46a4befed4e38ee9754d2c070803f9bc62a66921f145",
    "figure1-sparse/prio_traj-return-sarsa/K5/seed1":
        "2f083da669d54102c3254a47ef9b1c364937a3b5af3ced62e635b476efd5e6fc",
    "figure1-sparse/prio_traj-return-standard/B2/K5/seed0":
        "56c10c0736d9419d8d00833dd296bcd26216f511fff89392abe344226366cf92",
    "figure1-sparse/prio_traj-return-standard/B3/K5/seed0":
        "599378fcdc876252fd650a9413127d46f0908b20e4972891f662d27803a2d0cb",
    "figure1-sparse/prio_traj-return-standard/K1/seed0":
        "014d3fb25154e2449531768a1379cf735b8cdbe3aef482339585bee5918ccdf0",
    "figure1-sparse/prio_traj-return-standard/K1/seed1":
        "e6da58aa593438672bc887814b614404a7fd1ac76fcfdd43971c0e435d582f4f",
    "figure1-sparse/prio_traj-return-standard/K5/seed0":
        "1a5bc1eb89811bb9fc7b46fc01bb30f3f9c4236b04e670fc43274de7c207637b",
    "figure1-sparse/prio_traj-return-standard/K5/seed1":
        "ada1e5c69f4b308e02fdcf9bd43be169175e9e5257cf0e07e6cf239fb1399701",
    "figure1-sparse/prio_traj-return-weighted/B2/K5/seed0":
        "851e62036284c5b7ae9bd563fc2da17b7eb057bddf28f035201814c08b8730fc",
    "figure1-sparse/prio_traj-return-weighted/B3/K5/seed0":
        "37a171dbec0ad1c20f6dda9d3d2f52c0c836ba9e912805d691a553b56aa2fef7",
    "figure1-sparse/prio_traj-return-weighted/K1/seed0":
        "5fa75b94dbf1e7bb3fa63cf6be0c63130f25f871fcc84a3bc106e710d0217624",
    "figure1-sparse/prio_traj-return-weighted/K1/seed1":
        "c53f84279363cb39b262367c0c84174b1027784d2559d021e0c779b3851d86e3",
    "figure1-sparse/prio_traj-return-weighted/K5/seed0":
        "bbda062031d02d8a483fa658459b83297d3e88bb3652db9cde3d44137942d8ee",
    "figure1-sparse/prio_traj-return-weighted/K5/seed1":
        "e4ea0bf75e28079bdfd1be164f2585f543925ba122a8e561c0839e4254b35c8c",
    "figure1-sparse/uni_state-uniform-standard/B2/K5/seed0":
        "078c31b389535487e30501c4d0ebc48335fffb5293e2a962c974bc8a4d6c618f",
    "figure1-sparse/uni_state-uniform-standard/B3/K5/seed0":
        "f59ec1e81e4189653764eec3ab83f3a41f6d20bac275f83818a7335dff8dfa00",
    "figure1-sparse/uni_state-uniform-standard/K1/seed0":
        "3b3cad85b442c3202cc5ab761e63bea89e1322942b820d2849761c90591a7283",
    "figure1-sparse/uni_state-uniform-standard/K1/seed1":
        "6d6e328669d64159533c72c21017476917c7c8ace13da7886a70ddbfd1792b61",
    "figure1-sparse/uni_state-uniform-standard/K16/seed0":
        "2f18d1ac511c57f00318ddffb7f5de5e9a5231cfcc2fa9c1e1f31b572c5609e0",
    "figure1-sparse/uni_state-uniform-standard/K16/seed1":
        "a7e38fe1bd3e98a60b99fe4d0181c4c9e0bc4e6160338d33ea199e8d35b8e6fd",
    "figure1-sparse/uni_state-uniform-standard/K5/seed0":
        "02a7c209ea4b3d7a0d77a4f64b6ec2f818e1e212c57ec8e422a4794f517ede42",
    "figure1-sparse/uni_state-uniform-standard/K5/seed1":
        "9d796edf0c42aa59ebf82454b58810d14690572c939f5729bc880e8e9d8b36cf",
    "figure1-sparse/uni_traj-uniform-sarsa/B2/K5/seed0":
        "b9d90d42a628c01440a1c83deb8b2ca48485bb257eeb1364139ec1da34a584ac",
    "figure1-sparse/uni_traj-uniform-sarsa/B3/K5/seed0":
        "cddd0a11f17df1144939f1a45d43298da642c1fc7a8a36b780b5669f1dc34eec",
    "figure1-sparse/uni_traj-uniform-sarsa/K1/seed0":
        "aeeab7bf0b3680f3b7fc0e4c5fd7211b000c8ef343d672cc5daf14df8013b28c",
    "figure1-sparse/uni_traj-uniform-sarsa/K1/seed1":
        "1637c2bb02293a1a22d12bd11d146f7dba750b0ab2272a1342c67b8ea12a3eda",
    "figure1-sparse/uni_traj-uniform-sarsa/K5/seed0":
        "aaee8bb2ab010997232a46a4befed4e38ee9754d2c070803f9bc62a66921f145",
    "figure1-sparse/uni_traj-uniform-sarsa/K5/seed1":
        "2f083da669d54102c3254a47ef9b1c364937a3b5af3ced62e635b476efd5e6fc",
    "figure1-sparse/uni_traj-uniform-standard/B2/K5/seed0":
        "ec294db96eeb30cf37387c2c14529c968892ade20585ad9288e7bc02f14af75b",
    "figure1-sparse/uni_traj-uniform-standard/B3/K5/seed0":
        "599378fcdc876252fd650a9413127d46f0908b20e4972891f662d27803a2d0cb",
    "figure1-sparse/uni_traj-uniform-standard/K1/seed0":
        "9407529f8f435a26acb2a14c01d0dd2a508be65835bb509b9419f7676d47dd4c",
    "figure1-sparse/uni_traj-uniform-standard/K1/seed1":
        "12769f29d049d9f7bd04e55afd79dd5764fe6211fd9626cddbab868fd722eb27",
    "figure1-sparse/uni_traj-uniform-standard/K16/seed0":
        "c1684fa0f767b6e4b9b3530e2dfa5f6a71a10f7fb14ea176d63b505a21b24756",
    "figure1-sparse/uni_traj-uniform-standard/K16/seed1":
        "96220ddf47b74efc2590f49f9f698b8d72dad3f2cea278a4270a7afeceff7ab4",
    "figure1-sparse/uni_traj-uniform-standard/K5/seed0":
        "031d9e9ae0a2df39d037cff881175e9929fa0198d029f6677fe1dc72614cea2c",
    "figure1-sparse/uni_traj-uniform-standard/K5/seed1":
        "175808fadd9b7ada4f68d204572362350a3e845af7d603f75c728f9cdb2f8d19",
    "figure1-sparse/uni_traj-uniform-weighted/B2/K5/seed0":
        "eb6b1a08be726abe7b9892d41d2728076a4c2632b6ba64596f00094ecd5a50ba",
    "figure1-sparse/uni_traj-uniform-weighted/B3/K5/seed0":
        "37a171dbec0ad1c20f6dda9d3d2f52c0c836ba9e912805d691a553b56aa2fef7",
    "figure1-sparse/uni_traj-uniform-weighted/K1/seed0":
        "cb914939dc5946c4dfe026430f889b1a00e7210d890a266da1790549f59831de",
    "figure1-sparse/uni_traj-uniform-weighted/K1/seed1":
        "293f1f0521a86dd4820a250045c910589c4a9f5e5edfc8d12d833dff96855fc6",
    "figure1-sparse/uni_traj-uniform-weighted/K16/seed0":
        "0d84c0fcf8dfd04f5ff72c433f5851747499fdf594e834913bc12f9aedb896a5",
    "figure1-sparse/uni_traj-uniform-weighted/K16/seed1":
        "661ef984e7fdbc2e2b794b4b5c5a063dc98995558f2ef70c678ed030daf20f1c",
    "figure1-sparse/uni_traj-uniform-weighted/K5/seed0":
        "8a7c27a0f1373da97632cf4f5ec983c5997b1314fe92791bfeb4a4a846ceb8ae",
    "figure1-sparse/uni_traj-uniform-weighted/K5/seed1":
        "267a23c1420790c94da294292baa6f6a3d567f9e086d1c27d67e40af02aa988c",
    "figure1-sparse@flat-transitions/prio_state-uniform-standard/K5/seed0":
        "11d54fb11a8bbcde3136a072d2ce67135d131e489484a4266227f107b77b1e9c",
    "figure1-sparse@flat-transitions/prio_traj-return-sarsa/K5/seed0":
        "aaee8bb2ab010997232a46a4befed4e38ee9754d2c070803f9bc62a66921f145",
    "figure1-sparse@flat-transitions/prio_traj-return-standard/K5/seed0":
        "1a5bc1eb89811bb9fc7b46fc01bb30f3f9c4236b04e670fc43274de7c207637b",
    "figure1-sparse@flat-transitions/prio_traj-return-weighted/K5/seed0":
        "bbda062031d02d8a483fa658459b83297d3e88bb3652db9cde3d44137942d8ee",
    "figure1-sparse@flat-transitions/uni_state-uniform-standard/K5/seed0":
        "02a7c209ea4b3d7a0d77a4f64b6ec2f818e1e212c57ec8e422a4794f517ede42",
    "figure1-sparse@flat-transitions/uni_traj-uniform-sarsa/K5/seed0":
        "aaee8bb2ab010997232a46a4befed4e38ee9754d2c070803f9bc62a66921f145",
    "figure1-sparse@flat-transitions/uni_traj-uniform-standard/K5/seed0":
        "031d9e9ae0a2df39d037cff881175e9929fa0198d029f6677fe1dc72614cea2c",
    "figure1-sparse@flat-transitions/uni_traj-uniform-weighted/K5/seed0":
        "8a7c27a0f1373da97632cf4f5ec983c5997b1314fe92791bfeb4a4a846ceb8ae",
    "figure1-sparse@trajectory-jsonl/prio_state-uniform-standard/K5/seed0":
        "11d54fb11a8bbcde3136a072d2ce67135d131e489484a4266227f107b77b1e9c",
    "figure1-sparse@trajectory-jsonl/prio_traj-return-sarsa/K5/seed0":
        "aaee8bb2ab010997232a46a4befed4e38ee9754d2c070803f9bc62a66921f145",
    "figure1-sparse@trajectory-jsonl/prio_traj-return-standard/K5/seed0":
        "1a5bc1eb89811bb9fc7b46fc01bb30f3f9c4236b04e670fc43274de7c207637b",
    "figure1-sparse@trajectory-jsonl/prio_traj-return-weighted/K5/seed0":
        "bbda062031d02d8a483fa658459b83297d3e88bb3652db9cde3d44137942d8ee",
    "figure1-sparse@trajectory-jsonl/uni_state-uniform-standard/K5/seed0":
        "02a7c209ea4b3d7a0d77a4f64b6ec2f818e1e212c57ec8e422a4794f517ede42",
    "figure1-sparse@trajectory-jsonl/uni_traj-uniform-sarsa/K5/seed0":
        "aaee8bb2ab010997232a46a4befed4e38ee9754d2c070803f9bc62a66921f145",
    "figure1-sparse@trajectory-jsonl/uni_traj-uniform-standard/K5/seed0":
        "031d9e9ae0a2df39d037cff881175e9929fa0198d029f6677fe1dc72614cea2c",
    "figure1-sparse@trajectory-jsonl/uni_traj-uniform-weighted/K5/seed0":
        "8a7c27a0f1373da97632cf4f5ec983c5997b1314fe92791bfeb4a4a846ceb8ae",
    "chain-40/prio_state-uniform-standard/B40/K5/seed0":
        "8daaa68ae11ea771b8b6ab29965e59dafad3da76f314fc92818112ccdab40751",
    "chain-40/prio_traj-lower_mean_unc-sarsa/B40/K5/seed0":
        "21fe7637de170fc7b8855cd6eeaf076f33f922d767d71bce8d9c2a788f752b25",
    "chain-40/uni_state-uniform-standard/B40/K16/seed0":
        "8ec0243a8efa3871636c8bfa4e33521382b929cb96ffee2bebedeac732972a64",
    "chain-40/uni_state-uniform-standard/B40/K5/seed0":
        "e947c1f07f70c1c1aaf2166c199c825e7a33709e843b121141adcafb9aeb5031",
    "chain-40/uni_traj-uniform-standard/B40/K5/seed0":
        "c682f5f4cbe0865745de02a66116e373c4c1e0a51e4a46a7a986ee3db07e9350",
}

RUNS = golden_runs()


def test_every_run_has_a_golden():
    assert sorted(GOLDENS) == sorted(RUNS)
    assert sorted(TABLE_GOLDENS) == sorted(RUNS)


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_curve_matches_golden(run_id):
    assert digests(run_id)[0] == GOLDENS[run_id]


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_tables_match_golden(run_id):
    assert digests(run_id)[1] == TABLE_GOLDENS[run_id]


@pytest.mark.parametrize("run_id", ["chain-1000x10/uni_state/B32/K5/seed0",
                                    "chain-40/uni_state-uniform-standard/B40/K16/seed0"])
def test_batched_golden_run_repeats_a_pair(monkeypatch, run_id):
    """These goldens cover batches that update one (s, a) twice, at K = 5 and 16."""
    repeats = []
    update = EnsembleQ.update

    def recording_update(self, states, actions, targets):
        pairs = list(zip(np.asarray(states).tolist(), np.asarray(actions).tolist()))
        repeats.append(len(set(pairs)) < len(pairs))
        return update(self, states, actions, targets)

    monkeypatch.setattr(EnsembleQ, "update", recording_update)
    scenario, config = RUNS[run_id]
    train(dataset(scenario), config)
    assert 0 < sum(repeats) < len(repeats)
