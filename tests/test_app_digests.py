"""Pinned digests of all nine apps' outputs, and of the kernel work of
tracking, sift, stitch, disparity, svm and texture.

The digests were recorded on the code before the ray march, the
tridiagonal QL, face training, the KLT level solve, the SIFT
descriptor, the RANSAC hypothesis batch and the converging Jacobi SVD
were rewritten for speed; each rewrite must leave every output
bit-identical, so the digests must not change.  Svm's digests were
re-recorded when its interior-point CG solves gained a Jacobi
preconditioner, a declared output change: the solves no longer stop at
their iteration cap, so ``alpha`` and the IPM trace moved (accuracies
did not), and the digest now also covers each solve's CG iterations.
Texture's digests were re-recorded when its moments and moment warp
began computing powers as products, a declared output change: numpy's
``power`` rounds negative and non-negative values by different paths,
so the old bits depended on the sign and on the CPU's SIMD level; the
texture moved by at most 4.4e-16 and the residuals by at most 3.3e-15.
Texture's Laplacian-only synthesis pyramid, its one filter dispatch per
band and its stacked PCA Jacobi left every digest unchanged; the
synthesis no longer filters oriented bands it never reads, so its
``imgproc.convolve2d`` work is 7/13 of the old value.  Segmentation's
gathered affinity matvec left every digest unchanged.  Its eigensolve
then began computing only the four wanted Ritz pairs (multisection and
inverse iteration instead of QL on all of them) from a block-
reorthogonalized basis, a declared output change: the labels, grid
labels and purity kept their bits (their digest was recorded on the
code before), and the embedding moved by at most 1.1e-11 of its largest
entry after aligning signs, so it is pinned separately, as a sketch on
an ``EMBEDDING_TOL`` grid.  A digest covers the
app's canonical outputs: keys sorted, arrays as float64 bytes (with
their shape), scalars by ``repr``.  Stitch is pinned in parts (its
``outputs`` dict, inlier mask, affine model and panorama), and its DLT
homography, which comes out of an iterative SVD, is pinned as values
quantized to a ``HOMOGRAPHY_TOL`` grid rather than as bytes.  ``WORK``
pins the flops and bytes the dispatcher's work models record per
registered kernel in one run, which the rewrites must also leave
unchanged.

To re-record after an intended output change::

    PYTHONPATH=src python tests/test_app_digests.py
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.core import InputSize, get_benchmark, run_benchmark
from repro.disparity import benchmark as disparity_bench
from repro.disparity import dense_disparity, disparity_error
from repro.face import benchmark as face_bench
from repro.face import detect_faces, detection_hit_rate
from repro.localization import benchmark as loc_bench
from repro.localization import localize, position_error
from repro.segmentation import benchmark as seg_bench
from repro.segmentation import label_purity, segment_image
from repro.sift import benchmark as sift_bench
from repro.sift import extract_features
from repro.stitch import benchmark as stitch_bench
from repro.stitch import registration_error, stitch_pair
from repro.svm import SupportVectorMachine, polynomial_kernel
from repro.svm import benchmark as svm_bench
from repro.texture import benchmark as texture_bench
from repro.texture import synthesize_from_exemplar
from repro.tracking import benchmark as track_bench
from repro.tracking import track_sequence

CELLS = [("SQCIF", v) for v in range(5)] + [("CIF", 0)]


def canonical_digest(outputs):
    """sha256 over sorted keys, float64 array bytes and scalar reprs."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode() + b"\0")
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value, dtype=np.float64)
            h.update(repr(arr.shape).encode() + b"\0")
            h.update(arr.tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b"\0")
    return h.hexdigest()


def localization_outputs(size, variant):
    """The pose traces and scores the localization app computes."""
    world, seed = loc_bench.setup(InputSize[size], variant)
    outputs = {"steps": 0}
    for mode in ("global", "tracking"):
        est = localize(world, seed=seed, mode=mode)
        outputs[f"{mode}_poses"] = np.array(est)
        outputs[f"{mode}_error"] = position_error(est, world.true_poses)
        outputs["steps"] = len(est)
    return outputs


@functools.lru_cache(maxsize=None)
def segmentation_result(size, variant):
    """One segmentation run as the app makes it, with its ground truth."""
    image, truth = seg_bench.setup(InputSize[size], variant)
    result = segment_image(image, n_segments=seg_bench.N_SEGMENTS,
                           radius=seg_bench.RADIUS,
                           max_nodes=seg_bench.MAX_NODES)
    return result, truth


def segmentation_outputs(size, variant):
    """Labels and purity of the segmentation app (its embedding is
    pinned separately, by ``quantized_embedding``)."""
    result, truth = segmentation_result(size, variant)
    return {
        "labels": result.labels,
        "grid_labels": result.grid_labels,
        "n_segments": result.n_segments,
        "purity": label_purity(result.labels, truth),
    }


def face_outputs(size, variant):
    """Boxes, scores and hit rate of the trained cascade's detections."""
    cascade, scene = face_bench.setup(InputSize[size], variant)
    detections = detect_faces(cascade, scene.image)
    return {
        "boxes": np.array([(d.row, d.col, d.side) for d in detections],
                          dtype=np.float64).reshape(-1, 3),
        "scores": np.array([d.score for d in detections]),
        "true_faces": len(scene.true_boxes),
        "hit_rate": detection_hit_rate(detections, scene.true_boxes),
    }


def tracking_outputs(size, variant):
    """Every track's start, end, convergence and residual."""
    seq = track_bench.setup(InputSize[size], variant)
    pairs = track_sequence(seq.frames, max_features=track_bench.MAX_FEATURES,
                           levels=track_bench.PYRAMID_LEVELS)
    tracks = [t for pair in pairs for t in pair]
    return {
        "per_pair": tuple(len(pair) for pair in pairs),
        "start": np.array([t.start for t in tracks]).reshape(-1, 2),
        "end": np.array([t.end for t in tracks]).reshape(-1, 2),
        "converged": np.array([t.converged for t in tracks]),
        "residual": np.array([t.residual for t in tracks]),
    }


def _keypoint_fields(kp):
    return (kp.row, kp.col, kp.octave, kp.scale_index, kp.sigma,
            kp.response, kp.orientation)


def sift_outputs(size, variant):
    """Every keypoint's fields, every feature's orientation and bytes."""
    scene = sift_bench.setup(InputSize[size], variant)
    result = extract_features(scene, n_octaves=sift_bench.N_OCTAVES,
                              scales_per_octave=sift_bench.SCALES_PER_OCTAVE)
    return {
        "keypoints": np.array([_keypoint_fields(kp)
                               for kp in result.keypoints]).reshape(-1, 7),
        "features": np.array([_keypoint_fields(f.keypoint)
                              for f in result.features]).reshape(-1, 7),
        "descriptors": np.array([f.descriptor for f in result.features]
                                ).reshape(-1, 128),
    }


def disparity_outputs(size, variant):
    """The disparity map, its winning costs and the app's error."""
    pair = disparity_bench.setup(InputSize[size], variant)
    result = dense_disparity(pair.left, pair.right,
                             max_disparity=disparity_bench.MAX_DISPARITY,
                             window=disparity_bench.WINDOW)
    return {
        "disparity": result.disparity,
        "cost": result.cost,
        "mean_abs_error": disparity_error(result, pair.true_disparity),
    }


def svm_outputs(size, variant):
    """The dual solution, its equality multiplier, the IPM trace and the
    app's accuracies."""
    data = svm_bench.setup(InputSize[size], variant)
    machine = SupportVectorMachine(
        kernel=polynomial_kernel(degree=svm_bench.DEGREE,
                                 gamma=1.0 / svm_bench.DIM), c=1.0)
    machine.fit(data.train_x, data.train_y)
    result = machine.last_result
    return {
        "alpha": result.alpha,
        "equality_multiplier": result.equality_multiplier,
        "duality_gaps": np.array(result.trace.duality_gaps),
        "residual_norms": np.array(result.trace.residual_norms),
        "cg_iterations": np.array(result.trace.cg_iterations).reshape(-1, 2),
        "converged": result.converged,
        "bias": machine.bias,
        "train_accuracy": machine.accuracy(data.train_x, data.train_y),
        "test_accuracy": machine.accuracy(data.test_x, data.test_y),
    }


def texture_outputs(size, variant):
    """The synthesized image and its per-iteration statistic residuals."""
    exemplar, _kind, seed = texture_bench.setup(InputSize[size], variant)
    result = synthesize_from_exemplar(
        exemplar, out_shape=exemplar.shape,
        n_levels=texture_bench.N_LEVELS,
        n_orientations=texture_bench.N_ORIENTATIONS,
        iterations=texture_bench.ITERATIONS, seed=seed)
    return {"texture": result.texture,
            "residuals": np.array(result.residuals)}


@functools.lru_cache(maxsize=None)
def stitch_result(size, variant):
    """One stitch run as the app makes it, with its ground truth."""
    pair, seed = stitch_bench.setup(InputSize[size], variant)
    result = stitch_pair(pair.first, pair.second,
                         n_features=stitch_bench.N_FEATURES, seed=seed)
    return pair, result


def stitch_parts(size, variant):
    """Stitch's outputs, inlier mask, affine model and panorama, each a
    separately digested part so a moved part is named."""
    pair, result = stitch_result(size, variant)
    ransac = result.ransac
    return {
        "outputs": {
            "registration_error": registration_error(result.model,
                                                     pair.true_offset),
            "n_matches": result.n_matches,
            "n_inliers": ransac.n_inliers if ransac else 0,
            "coverage": result.panorama.coverage,
        },
        "inliers": {
            "mask": ransac.inliers if ransac else None,
            "iterations": ransac.iterations if ransac else 0,
        },
        "model": {
            "matrix": result.model.matrix,
            "translation": result.model.translation,
        },
        "panorama": {
            "image": result.panorama.image,
            "offset": result.panorama.offset,
            "coverage": result.panorama.coverage,
        },
    }


#: The homography's pinned tolerance: values are stored on this grid.
HOMOGRAPHY_TOL = 1e-12


def quantized_homography(size, variant):
    """The DLT homography rounded to ``HOMOGRAPHY_TOL`` steps (or None)."""
    _pair, result = stitch_result(size, variant)
    if result.homography is None:
        return None
    steps = np.rint(result.homography / HOMOGRAPHY_TOL).astype(np.int64)
    return tuple(int(q) for q in steps.ravel())


#: The segmentation embedding's pinned tolerance: its sketch is stored on
#: this grid.
EMBEDDING_TOL = 1e-9


def quantized_embedding(size, variant):
    """Segmentation's embedding as eight fixed Gaussian projections of each
    column, rounded to ``EMBEDDING_TOL`` steps.  Every entry of the
    ``(n_nodes, 4)`` embedding enters each projection with a weight of
    order one, so moving any entry by more than a few steps shows."""
    result, _truth = segmentation_result(size, variant)
    embedding = result.eigenvectors
    sketch = np.random.default_rng(0).standard_normal(
        (8, embedding.shape[0])) @ embedding
    steps = np.rint(sketch / EMBEDDING_TOL).astype(np.int64)
    return tuple(int(q) for q in steps.ravel())


APPS = {"disparity": disparity_outputs,
        "face": face_outputs,
        "localization": localization_outputs,
        "segmentation": segmentation_outputs,
        "sift": sift_outputs,
        "svm": svm_outputs,
        "texture": texture_outputs,
        "tracking": tracking_outputs}

STITCH_PARTS = ("inliers", "model", "outputs", "panorama")

DIGESTS = {
    ("disparity", "SQCIF", 0):
        "adfed1a176650adfa088168baccde463b0cd4208e202a3acc4ca35d0048c4982",
    ("disparity", "SQCIF", 1):
        "ba2f5b303fc13ad5e928fda630a9bf935d861837e2a4224e0f4befd6c29951da",
    ("disparity", "SQCIF", 2):
        "77efec43c254b7fefb51851eb7659003e08b239ad50dc2d62a673004718d77ab",
    ("disparity", "SQCIF", 3):
        "577d4a4608b99ba07773c215bd09f4455b47e142d516614d9243e03d602001ee",
    ("disparity", "SQCIF", 4):
        "659d61b2ae87b51e455fe02b5763d0fbfbee9c506c94ae04e3e2c81e2a02e56e",
    ("disparity", "CIF", 0):
        "77eb646e1b8a8fe8532a0c1df3d5160e37653a5732d8db4b52078714a159e5ac",
    ("face", "SQCIF", 0):
        "0c23b209705daa391550ec3bef46b6ecb2a89e981d3eb79476950cf693d487d2",
    ("face", "SQCIF", 1):
        "e720c4e0f4c549abb7ccbca75e81e8e56b44f97e2cb5245c24e7036cf8a65df6",
    ("face", "SQCIF", 2):
        "8256e0aa6b77afcf5fe0d86d2c3bc1ab1f0b951148c38df930a7021627cfc07c",
    ("face", "SQCIF", 3):
        "a2a0c23d9905ff7bc12f392ec52489e63d8a0f8752133de2f65d251f70acab3a",
    ("face", "SQCIF", 4):
        "beacce651316382993a7ef1298164704d5079db38eee8df0c49c306872cd7bb7",
    ("face", "CIF", 0):
        "c084aa144ae5f7bb44668f04a41dd12318f1f93e6b70dbec7c3d0dda6dd39d9d",
    ("localization", "SQCIF", 0):
        "e0d361a955e84e4cd19ce0c1369dc7cf3db57ac3a06ea57052fc6fac1dcf0751",
    ("localization", "SQCIF", 1):
        "56d414073d3ecedfb66f6a140ccacf2387cddf7707b74cb39b50c17bbd75607a",
    ("localization", "SQCIF", 2):
        "ec9f5004b3dbbbe3db72fd14eaff7ea29b420d6d1d81ab6800aa9726d58e7d9a",
    ("localization", "SQCIF", 3):
        "2f989f4b4c124559da3657c020680657a43bc7d501e25a4c05b2e0ddbbd39728",
    ("localization", "SQCIF", 4):
        "205ce5e1969d9ef5aecce04b7ec770e80fa546032022e4f920b3c9b750f19b4e",
    ("localization", "CIF", 0):
        "3a0ee725e8bd5d21b0c555870ada8f9b12f8b0ffef21fb8423bfdfad9fc83e48",
    ("segmentation", "SQCIF", 0):
        "53d61f60d6640e6d2d063010731f88f958dd0828b694fada1f343aba4955f015",
    ("segmentation", "SQCIF", 1):
        "b1291d4b43769528c378eda4b8569c231c8fcd6ac7ec313f3c41d463f0a4c97e",
    ("segmentation", "SQCIF", 2):
        "6d5392e36c4bf5bbde145cf050b960a071f6ad0e08c56b3aaa2cdcf812d90373",
    ("segmentation", "SQCIF", 3):
        "a3b6fccefa6c365ffacd4f15d3e105271d0ffadfc973cb36bdaf7e286e5477cf",
    ("segmentation", "SQCIF", 4):
        "e1eea72e368e03ca0aec152987868663b9ebf90850f8432fb5a9d085c7c3cdc9",
    ("segmentation", "CIF", 0):
        "d6cb13c0b6dc743aaf714cf0923314672aa557f0cfea2bcbd1e719ac80d98c7e",
    ("sift", "SQCIF", 0):
        "dbc5797aa35b1008d52f977b588dafc3345ccb7958ba7e577c8c1a927ef4bd1e",
    ("sift", "SQCIF", 1):
        "60863d04750f37a1adf0820ec0d7a2f3dfb5a112d9ff0f4eadd724f7e91d7a56",
    ("sift", "SQCIF", 2):
        "22049750c69672cf3ca4f8660f59b72bd509628f210ae1ddc1ac1e74a20d2374",
    ("sift", "SQCIF", 3):
        "5f191903e5ef6beb49f197de5c3535ea808ca630b72751bcb1c094938b89d80c",
    ("sift", "SQCIF", 4):
        "0453e55628a0a169ac4e0b740eeb3eaaa49d880987170d5e6cdfbd4d92eedd7f",
    ("sift", "CIF", 0):
        "e9211a11eda2dc171bd6d4e744b34efc3a1d86c186eb3b331eb16f27daab8ef0",
    ("svm", "SQCIF", 0):
        "b4a80166a77f57555aeff4ce1a51bcbb943e894efb70092fc2a3d8112bf9086d",
    ("svm", "SQCIF", 1):
        "7933d63521e4f8c86d8c4b0ce3d4333cdbae3fa88c8f0a6ce697a84638108d23",
    ("svm", "SQCIF", 2):
        "f125942279dc77a1bda76fd057d0e012fa807feb4467cd34c1f9469bc359973f",
    ("svm", "SQCIF", 3):
        "28815dc08ded3bbf941db7002b6383c3bbca239d166bd5a7f3a9a95ceb4f421f",
    ("svm", "SQCIF", 4):
        "161105f855d51b8a36c7eaab16bf9080fa3b9679efddee81d42c7127ba1d362b",
    ("svm", "CIF", 0):
        "2cccc5c7078c8947d031b9e45c69963b42d1029ed712af64e9ec665967895ece",
    ("texture", "SQCIF", 0):
        "68b5492d30ee47f435ceefd378c87d4fd1ba8ab0bbaad3cb48e7d375a8f7fb68",
    ("texture", "SQCIF", 1):
        "d91445e80d1674627bcadc4a78b75bfa09bf3a5b0d2a89013f44a6320a13a638",
    ("texture", "SQCIF", 2):
        "ada40379c45746dcb1d7d6bf80dc53ff5474bff05efd5e72324e04f11f2e3b5d",
    ("texture", "SQCIF", 3):
        "2d4bc21764beb8435db7df411c3ae5fae18de5a2a9c5c6e2a4a07700158cb3b0",
    ("texture", "SQCIF", 4):
        "1c3dc4f1fa651d8878409714e9232ee0a6d24a1b89e44a3e8137e7df5875188d",
    ("texture", "CIF", 0):
        "05a1c7140e9ad2fafa81b1d417e0a2cfeccd262649437691d2cab81d20e89d7b",
    ("tracking", "SQCIF", 0):
        "52fa71ffe590667774402af9abc912554c90bc4e13234ddcba6cdf3990d32398",
    ("tracking", "SQCIF", 1):
        "7a0cd23d7206674a8a0b0a2e83cf6d8b0f2b0db179c12265a310e7691dca13e7",
    ("tracking", "SQCIF", 2):
        "4942d428d791bd822065402f0c964ce5a776581153d403a91cd19e135188e4ba",
    ("tracking", "SQCIF", 3):
        "552a7b4929ee6ebba39144a110c595e38fd751c43097c1e964c9827b0e07c5e6",
    ("tracking", "SQCIF", 4):
        "b3aeb15c70f7d5e80b170297dc8fee6525c3e897ca6e29aa7f5c23fa7c6ba4c6",
    ("tracking", "CIF", 0):
        "aa14d2fb4bd8636524c8fa13e011653bd29f71c9b35d32410d279ce0e31489da",
}


STITCH_DIGESTS = {
    ("SQCIF", 0): {
        "inliers":
            "47834746810a7c831d54bfb134b3c837b3013d54525c207812fe4a0ebe098f25",
        "model":
            "83b73bdc40082f9815ec29bf87fd5b1f592b71aa950dd6faa44547f22102252c",
        "outputs":
            "1693a905c5d9d79a42153d2849cf1f52b3651269230af368d3e2b4425e83649e",
        "panorama":
            "b5ae29c32ea62f93e4cdbf9f8b1c49a5ecdde621d9c3af4824b65aad625151dc",
    },
    ("SQCIF", 1): {
        "inliers":
            "ae037ac7857e65105759ff9f388e6df53ba06a599f80390e98f14d0c908bcee8",
        "model":
            "fee11d29cceb6f8a8e6ac8e891784db14431b565fed1403dd8c475b8f4053630",
        "outputs":
            "474219a249c78881b7be9abe6d878aac34460ffad4b4a33fb3e71fdb8036f80b",
        "panorama":
            "e3d76dd9522350e6b8895b90cc4e851277b2264696b30f5ff1e8c6aa91aa25dd",
    },
    ("SQCIF", 2): {
        "inliers":
            "84ffa50e15c3a43d7444a30799fe2d8b9c303caf47cc0ba8d4d378c9ff5f2718",
        "model":
            "214902c1bf6f5b4fd9fb6a3acd02db2669149ff491041c82403d3673bfda4932",
        "outputs":
            "4f008192b66ba59d2ed9c36101db9f8119bf57a3616d2687b2b52a3a186c78ac",
        "panorama":
            "2cd22d6ba346d7e12068af7c7ef5c94d6c6fec0326072f249c005363e84c8956",
    },
    ("SQCIF", 3): {
        "inliers":
            "384c037dffa5fc9ce520d5a77babd8c84f0a275d51f8d0cf28a1e32a0750dabc",
        "model":
            "6e5f6f35319e994b68fee4c453278a62d57c35686403f9fe3d40a2db4372b457",
        "outputs":
            "d836ca49594d4d9463d442b4f9fc9122fc6b79847cbd63ddc7c200b3e866f7d4",
        "panorama":
            "3ecb45a2c39b67bbb0df130b9805d82192041fb1005b97979b3811bf7259cadb",
    },
    ("SQCIF", 4): {
        "inliers":
            "e930fd68d343be3644ea82414dd8109041c7b76259142e40bc94814e0d2730ce",
        "model":
            "3abf06383edcae09f916c8a6e6188eeb31e020e63f6eedd29145c76c83a3e63e",
        "outputs":
            "1af98da94550684f0d22cda1e8314c5c9663940c7b40217f72c8510cb300eb7f",
        "panorama":
            "e036b760deb1c37cd09a89f1cff1e81fe884b1955264b3ef3ea171fb56e6152e",
    },
    ("CIF", 0): {
        "inliers":
            "f28aaaa2add6d80af2217b10e3f499e42a0326523ca01b932395ab1aa9189760",
        "model":
            "eab11ac92fcc419fd98d81a85f924aa0fbf6a0ba726ffbda4553022d38234732",
        "outputs":
            "1b7e1fcc6f54afd98272899d478b3941226fe69cd804557b766311d7277fe94d",
        "panorama":
            "a079f2b0b8263cd248204952969193b3baa45b3d0ebe18164a463561cb42905e",
    },
}

#: Segmentation's embedding sketch (``quantized_embedding``) per cell.
EMBEDDING = {
    ("SQCIF", 0): (
        -301477652, -192540833, 236957680, 259018877, 110296953, -164394595,
        -73953310, 195692037, 238490589, 34797080, 187757659, 340534412,
        310080923, 75535979, 84804734, 418104765, -55901091, -324842708,
        121654217, 33265122, 2577204, 105945066, 450444437, 248756548,
        114510963, -5385951, 348351318, -201548813, 355513508, -104790059,
        -218161185, 411804441,
    ),
    ("SQCIF", 1): (
        301381921, 13282700, 17863433, -128168905, -110261930, 80214456,
        -386729903, -259800664, -238414858, -53948088, -256522292, -255777661,
        -309982460, 206856393, -614209499, -70876519, 55883340, 154772493,
        -177631357, 97106573, -2576386, 266473060, -119257957, -111758833,
        -114474601, -255406643, 329695233, -112936838, -355400619, 192914800,
        -138393176, 213817456,
    ),
    ("SQCIF", 2): (
        305516902, 171236753, 62332279, 66551130, -111774729, -136321857,
        519676671, 20241232, -241685923, -33897619, 279898144, 66098888,
        -314235441, -189686799, 291644188, 98141683, 56650059, -26629795,
        -391654548, 517570698, -2611733, 383995253, -295185584, 249416322,
        -116045203, 856484030, -229641700, 220574490, -360276736, -347492090,
        61075216, 8764291,
    ),
    ("SQCIF", 3): (
        300361633, 122348821, -6145433, -255255953, -109888650, 117528486,
        -108886940, -347318071, -237607736, -118886374, -305871745, 53066270,
        -308933055, 234347409, -216688284, -245649589, 55694154, -76367000,
        26332026, 466589330, -2567664, -187693355, -227244917, 629228652,
        -114087060, -455736199, 137213951, -30880623, -354197457, 390959713,
        -90255738, -4742377,
    ),
    ("SQCIF", 4): (
        305130483, 441547738, 288390095, 93073279, -111632792, 230150259,
        -79590036, 215395145, -241381295, 230998364, -112367477, 231676005,
        -313837662, 329742532, 196872062, -88625271, 56578087, 63840080,
        316844110, -391487346, -2609907, -16542361, 415013013, -81353717,
        -115899869, 132280544, -315497768, -14259500, -359820881, 173931467,
        520384087, -45401674,
    ),
    ("CIF", 0): (
        314727076, 166225540, 234195068, -147228348, -156900449, -186945395,
        71746365, 64344289, -118629629, 145386152, 271533277, 72567091,
        -384269591, 453725716, -159654033, 101415403, 69172466, 33943489,
        73073665, 46076426, -101055944, 94217540, 123859015, 410347217,
        -87978160, 85468659, -194988817, -18197249, -269432122, -97310548,
        61082452, -77563972,
    ),
}

HOMOGRAPHY = {
    ("SQCIF", 0): (
        1000000000000, 0, -41000000000000,
        0, 1000000000000, -2000000000000,
        0, 0, 1000000000000,
    ),
    ("SQCIF", 1): (
        1000000000000, 0, -38000000000000,
        0, 1000000000000, -9000000000000,
        0, 0, 1000000000000,
    ),
    ("SQCIF", 2): (
        1000000000000, 0, -41000000000000,
        0, 1000000000000, -2000000000000,
        0, 0, 1000000000000,
    ),
    ("SQCIF", 3): (
        1000000000000, 0, -34000000000000,
        0, 1000000000000, -6000000000000,
        0, 0, 1000000000000,
    ),
    ("SQCIF", 4): (
        1000000000000, 0, -31000000000000,
        0, 1000000000000, -10000000000000,
        0, 0, 1000000000000,
    ),
    ("CIF", 0): (
        1000000000000, 0, -72000000000000,
        0, 1000000000000, -25000000000000,
        0, 0, 1000000000000,
    ),
}


def kernel_work(app, size, variant):
    """``{kernel: (flops, bytes)}`` from one run's ``metrics.kernels``."""
    run = run_benchmark(get_benchmark(app), InputSize[size], variant)
    return {name: (int(block["flops"]), int(block["bytes"]))
            for name, block in sorted(run.metrics["kernels"].items())}


WORK_APPS = ("disparity", "sift", "stitch", "svm", "texture", "tracking")
WORK_CELLS = CELLS[:5]

WORK = {
    ("disparity", "SQCIF", 0): {
        "disparity.ssd": (393216, 4718592),
        "imgproc.convolve_cols": (147456, 393264),
        "imgproc.convolve_rows": (147456, 393264),
        "imgproc.integral_image": (393216, 3174528),
    },
    ("disparity", "SQCIF", 1): {
        "disparity.ssd": (393216, 4718592),
        "imgproc.convolve_cols": (147456, 393264),
        "imgproc.convolve_rows": (147456, 393264),
        "imgproc.integral_image": (393216, 3174528),
    },
    ("disparity", "SQCIF", 2): {
        "disparity.ssd": (393216, 4718592),
        "imgproc.convolve_cols": (147456, 393264),
        "imgproc.convolve_rows": (147456, 393264),
        "imgproc.integral_image": (393216, 3174528),
    },
    ("disparity", "SQCIF", 3): {
        "disparity.ssd": (393216, 4718592),
        "imgproc.convolve_cols": (147456, 393264),
        "imgproc.convolve_rows": (147456, 393264),
        "imgproc.integral_image": (393216, 3174528),
    },
    ("disparity", "SQCIF", 4): {
        "disparity.ssd": (393216, 4718592),
        "imgproc.convolve_cols": (147456, 393264),
        "imgproc.convolve_rows": (147456, 393264),
        "imgproc.integral_image": (393216, 3174528),
    },
    ("sift", "SQCIF", 0): {
        "imgproc.bilinear": (786432, 2752512),
        "imgproc.convolve_cols": (10653696, 6391752),
        "imgproc.convolve_rows": (10653696, 6391752),
        "imgproc.gradient": (73728, 294912),
        "imgproc.integral_image": (73728, 595224),
        "sift.descriptor": (2773248, 4340736),
    },
    ("sift", "SQCIF", 1): {
        "imgproc.bilinear": (786432, 2752512),
        "imgproc.convolve_cols": (10653696, 6391752),
        "imgproc.convolve_rows": (10653696, 6391752),
        "imgproc.gradient": (73728, 294912),
        "imgproc.integral_image": (73728, 595224),
        "sift.descriptor": (3597568, 5630976),
    },
    ("sift", "SQCIF", 2): {
        "imgproc.bilinear": (786432, 2752512),
        "imgproc.convolve_cols": (10653696, 6391752),
        "imgproc.convolve_rows": (10653696, 6391752),
        "imgproc.gradient": (73728, 294912),
        "imgproc.integral_image": (73728, 595224),
        "sift.descriptor": (3685888, 5769216),
    },
    ("sift", "SQCIF", 3): {
        "imgproc.bilinear": (786432, 2752512),
        "imgproc.convolve_cols": (10653696, 6391752),
        "imgproc.convolve_rows": (10653696, 6391752),
        "imgproc.gradient": (73728, 294912),
        "imgproc.integral_image": (73728, 595224),
        "sift.descriptor": (3150080, 4930560),
    },
    ("sift", "SQCIF", 4): {
        "imgproc.bilinear": (786432, 2752512),
        "imgproc.convolve_cols": (10653696, 6391752),
        "imgproc.convolve_rows": (10653696, 6391752),
        "imgproc.gradient": (73728, 294912),
        "imgproc.integral_image": (73728, 595224),
        "sift.descriptor": (3061760, 4792320),
    },
    ("stitch", "SQCIF", 0): {
        "imgproc.bilinear": (669632, 2343712),
        "imgproc.convolve_cols": (2654208, 2360160),
        "imgproc.convolve_rows": (2654208, 2360160),
        "imgproc.gradient": (147456, 589824),
        "stitch.match_distances": (536576, 98304),
    },
    ("stitch", "SQCIF", 1): {
        "imgproc.bilinear": (684928, 2397248),
        "imgproc.convolve_cols": (2654208, 2360160),
        "imgproc.convolve_rows": (2654208, 2360160),
        "imgproc.gradient": (147456, 589824),
        "stitch.match_distances": (462954, 89200),
    },
    ("stitch", "SQCIF", 2): {
        "imgproc.bilinear": (582496, 2038736),
        "imgproc.convolve_cols": (2654208, 2360160),
        "imgproc.convolve_rows": (2654208, 2360160),
        "imgproc.gradient": (147456, 589824),
        "stitch.match_distances": (69168, 27776),
    },
    ("stitch", "SQCIF", 3): {
        "imgproc.bilinear": (665024, 2327584),
        "imgproc.convolve_cols": (2654208, 2360160),
        "imgproc.convolve_rows": (2654208, 2360160),
        "imgproc.gradient": (147456, 589824),
        "stitch.match_distances": (536576, 98304),
    },
    ("stitch", "SQCIF", 4): {
        "imgproc.bilinear": (673792, 2358272),
        "imgproc.convolve_cols": (2654208, 2360160),
        "imgproc.convolve_rows": (2654208, 2360160),
        "imgproc.gradient": (147456, 589824),
        "stitch.match_distances": (536576, 98304),
    },
    ("svm", "SQCIF", 0): {
        "svm.kernel_matrix": (217600, 112640),
    },
    ("svm", "SQCIF", 1): {
        "svm.kernel_matrix": (217600, 112640),
    },
    ("svm", "SQCIF", 2): {
        "svm.kernel_matrix": (217600, 112640),
    },
    ("svm", "SQCIF", 3): {
        "svm.kernel_matrix": (217600, 112640),
    },
    ("svm", "SQCIF", 4): {
        "svm.kernel_matrix": (217600, 112640),
    },
    ("texture", "SQCIF", 0): {
        "imgproc.bilinear": (919296, 3217536),
        "imgproc.convolve2d": (4233600, 1371552),
        "imgproc.convolve_cols": (550368, 631176),
        "imgproc.convolve_rows": (550368, 631176),
    },
    ("texture", "SQCIF", 1): {
        "imgproc.bilinear": (919296, 3217536),
        "imgproc.convolve2d": (4233600, 1371552),
        "imgproc.convolve_cols": (550368, 631176),
        "imgproc.convolve_rows": (550368, 631176),
    },
    ("texture", "SQCIF", 2): {
        "imgproc.bilinear": (919296, 3217536),
        "imgproc.convolve2d": (4233600, 1371552),
        "imgproc.convolve_cols": (550368, 631176),
        "imgproc.convolve_rows": (550368, 631176),
    },
    ("texture", "SQCIF", 3): {
        "imgproc.bilinear": (919296, 3217536),
        "imgproc.convolve2d": (4233600, 1371552),
        "imgproc.convolve_cols": (550368, 631176),
        "imgproc.convolve_rows": (550368, 631176),
    },
    ("texture", "SQCIF", 4): {
        "imgproc.bilinear": (919296, 3217536),
        "imgproc.convolve2d": (4233600, 1371552),
        "imgproc.convolve_cols": (550368, 631176),
        "imgproc.convolve_rows": (550368, 631176),
    },
    ("tracking", "SQCIF", 0): {
        "imgproc.bilinear": (2350944, 8228304),
        "imgproc.convolve_cols": (1446912, 2286288),
        "imgproc.convolve_rows": (1446912, 2286288),
        "imgproc.gradient": (340992, 1363968),
        "imgproc.integral_image": (147456, 1190448),
        "tracking.min_eigenvalue": (221184, 786432),
    },
    ("tracking", "SQCIF", 1): {
        "imgproc.bilinear": (2450736, 8577576),
        "imgproc.convolve_cols": (1446912, 2286288),
        "imgproc.convolve_rows": (1446912, 2286288),
        "imgproc.gradient": (340992, 1363968),
        "imgproc.integral_image": (147456, 1190448),
        "tracking.min_eigenvalue": (221184, 786432),
    },
    ("tracking", "SQCIF", 2): {
        "imgproc.bilinear": (2379456, 8328096),
        "imgproc.convolve_cols": (1446912, 2286288),
        "imgproc.convolve_rows": (1446912, 2286288),
        "imgproc.gradient": (340992, 1363968),
        "imgproc.integral_image": (147456, 1190448),
        "tracking.min_eigenvalue": (221184, 786432),
    },
    ("tracking", "SQCIF", 3): {
        "imgproc.bilinear": (2477952, 8672832),
        "imgproc.convolve_cols": (1446912, 2286288),
        "imgproc.convolve_rows": (1446912, 2286288),
        "imgproc.gradient": (340992, 1363968),
        "imgproc.integral_image": (147456, 1190448),
        "tracking.min_eigenvalue": (221184, 786432),
    },
    ("tracking", "SQCIF", 4): {
        "imgproc.bilinear": (2459808, 8609328),
        "imgproc.convolve_cols": (1446912, 2286288),
        "imgproc.convolve_rows": (1446912, 2286288),
        "imgproc.gradient": (340992, 1363968),
        "imgproc.integral_image": (147456, 1190448),
        "tracking.min_eigenvalue": (221184, 786432),
    },
}


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("size,variant", CELLS)
def test_output_digest_pinned(app, size, variant):
    digest = canonical_digest(APPS[app](size, variant))
    assert digest == DIGESTS[(app, size, variant)]


@pytest.mark.parametrize("part", STITCH_PARTS)
@pytest.mark.parametrize("size,variant", CELLS)
def test_stitch_digest_pinned(part, size, variant):
    digest = canonical_digest(stitch_parts(size, variant)[part])
    assert digest == STITCH_DIGESTS[(size, variant)][part]


@pytest.mark.parametrize("size,variant", CELLS)
def test_stitch_homography_within_tolerance(size, variant):
    pinned = HOMOGRAPHY[(size, variant)]
    steps = quantized_homography(size, variant)
    assert (steps is None) == (pinned is None)
    if pinned is not None:
        # One grid step covers the rounding of both sides.
        assert np.abs(np.array(steps) - np.array(pinned)).max() <= 1


@pytest.mark.parametrize("size,variant", CELLS)
def test_segmentation_embedding_within_tolerance(size, variant):
    steps = np.array(quantized_embedding(size, variant))
    # One grid step covers the rounding of both sides.
    assert np.abs(steps - np.array(EMBEDDING[(size, variant)])).max() <= 1


@pytest.mark.parametrize("app", WORK_APPS)
@pytest.mark.parametrize("size,variant", WORK_CELLS)
def test_kernel_work_pinned(app, size, variant):
    assert kernel_work(app, size, variant) == WORK[(app, size, variant)]


if __name__ == "__main__":
    for app in sorted(APPS):
        for size, variant in CELLS:
            digest = canonical_digest(APPS[app](size, variant))
            print(f'    ("{app}", "{size}", {variant}):\n        "{digest}",')
    for size, variant in CELLS:
        parts = stitch_parts(size, variant)
        print(f'    ("{size}", {variant}): {{')
        for part in STITCH_PARTS:
            digest = canonical_digest(parts[part])
            print(f'        "{part}":\n            "{digest}",')
        print("    },")
    for size, variant in CELLS:
        print(f'    ("{size}", {variant}): '
              f'{quantized_embedding(size, variant)!r},')
    for size, variant in CELLS:
        steps = quantized_homography(size, variant)
        print(f'    ("{size}", {variant}): {steps!r},')
    for app in WORK_APPS:
        for size, variant in WORK_CELLS:
            work = kernel_work(app, size, variant)
            print(f'    ("{app}", "{size}", {variant}): {work!r},')
