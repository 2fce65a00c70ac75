"""Deterministic forward-pass references for the encoder building blocks:
multi-head attention, the convolutional-gating MLP (cgMLP), the
two-branch encoder block and its depthwise-merge variant, the
bidirectional cross-attention fusion of an audio and a video stream, and
the CTC loss over the fused features.

Everything here is forward-only and exactly reproducible: parameters are
drawn from an xorshift64* stream mapped to uniform(-0.1, 0.1), so two
runs (or two independent implementations) with the same seed produce bit
identical numbers. Tensors serialize to a flat binary format for the
command-line demo.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InfeasibleLabelError, ParameterError

_MASK64 = (1 << 64) - 1
_MULT = 2685821657736338717
_SEED0 = 0x9E3779B97F4A7C15  # stand-in state for the forbidden all-zero seed
_INIT_HALF_RANGE = 0.1
_LN_EPS = 1e-5
_MODALITIES = ("audio", "video")
_BLANK = 0

_MAGIC = b"FTOY"
_FTOY_VERSION = 1


class XorShift64Star:
    """xorshift64* stream: shifts 12/25/27, Vigna's odd multiplier."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ParameterError(f"seed must be a 64-bit value, got {seed}")
        self._state = seed if seed != 0 else _SEED0

    def next_uint64(self) -> int:
        s = self._state
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self._state = s
        return (s * _MULT) & _MASK64

    def next_uniform(self) -> float:
        # top 53 bits -> [0, 1) -> (-0.1, 0.1)
        u = (self.next_uint64() >> 11) * 2.0**-53
        return -_INIT_HALF_RANGE + 2.0 * _INIT_HALF_RANGE * u

    def draw(self, *shape: int) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        flat = np.fromiter((self.next_uniform() for _ in range(n)), dtype=np.float64, count=n)
        return flat.reshape(shape)


@dataclass(frozen=True)
class ParamSeed:
    """Root of all deterministic parameter draws."""

    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ParameterError(f"seed must be a 64-bit value, got {self.seed}")

    def generator(self) -> XorShift64Star:
        return XorShift64Star(self.seed)


@dataclass(frozen=True)
class FeatureSequence:
    """Real-valued frame sequence of one modality."""

    frames: np.ndarray  # (T, dim)
    modality: str = "audio"

    def __post_init__(self):
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 2:
            raise ParameterError(f"frames must be (T, dim), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("frames must be finite")
        if self.modality not in _MODALITIES:
            raise ParameterError(f"modality must be one of {_MODALITIES}")
        object.__setattr__(self, "frames", arr)

    @property
    def length(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def _expect(condition: bool, message: str):
    if not condition:
        raise ParameterError(message)


@dataclass(frozen=True)
class AttentionParams:
    heads: int
    w_q: np.ndarray
    b_q: np.ndarray
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray
    b_v: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray

    def __post_init__(self):
        d = self.w_q.shape[0]
        _expect(self.heads >= 1, "heads must be >= 1")
        _expect(d % self.heads == 0, f"dim {d} not divisible by {self.heads} heads")
        for name in ("w_q", "w_k", "w_v", "w_o"):
            _expect(getattr(self, name).shape == (d, d), f"{name} must be ({d}, {d})")
        for name in ("b_q", "b_k", "b_v", "b_o"):
            _expect(getattr(self, name).shape == (d,), f"{name} must be ({d},)")

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]

    @classmethod
    def seeded(cls, gen: XorShift64Star, dim: int, heads: int) -> "AttentionParams":
        return cls(
            heads=heads,
            w_q=gen.draw(dim, dim),
            b_q=gen.draw(dim),
            w_k=gen.draw(dim, dim),
            b_k=gen.draw(dim),
            w_v=gen.draw(dim, dim),
            b_v=gen.draw(dim),
            w_o=gen.draw(dim, dim),
            b_o=gen.draw(dim),
        )


@dataclass(frozen=True)
class CgmlpParams:
    """Up-projection to 2e, gated by a layer-normed depthwise convolution."""

    w_up: np.ndarray  # (d, 2e)
    b_up: np.ndarray
    ln_gamma: np.ndarray  # (e,)
    ln_beta: np.ndarray
    conv_kernel: np.ndarray  # (e, width), width odd
    conv_bias: np.ndarray
    w_down: np.ndarray  # (e, d)
    b_down: np.ndarray

    def __post_init__(self):
        d, two_e = self.w_up.shape
        _expect(two_e % 2 == 0, "up-projection must produce an even width")
        e = two_e // 2
        _expect(self.conv_kernel.ndim == 2 and self.conv_kernel.shape[0] == e,
                f"conv_kernel must be ({e}, width)")
        _expect(self.conv_kernel.shape[1] % 2 == 1, "conv width must be odd")
        _expect(self.b_up.shape == (two_e,), f"b_up must be ({two_e},)")
        for name in ("ln_gamma", "ln_beta", "conv_bias"):
            _expect(getattr(self, name).shape == (e,), f"{name} must be ({e},)")
        _expect(self.w_down.shape == (e, d), f"w_down must be ({e}, {d})")
        _expect(self.b_down.shape == (d,), f"b_down must be ({d},)")

    @property
    def dim(self) -> int:
        return self.w_up.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_up.shape[1] // 2

    @property
    def kernel_width(self) -> int:
        return self.conv_kernel.shape[1]

    @classmethod
    def seeded(cls, gen: XorShift64Star, dim: int, hidden: int, width: int) -> "CgmlpParams":
        return cls(
            w_up=gen.draw(dim, 2 * hidden),
            b_up=gen.draw(2 * hidden),
            ln_gamma=np.ones(hidden),
            ln_beta=np.zeros(hidden),
            conv_kernel=gen.draw(hidden, width),
            conv_bias=gen.draw(hidden),
            w_down=gen.draw(hidden, dim),
            b_down=gen.draw(dim),
        )


_VARIANTS = ("branchformer", "e-branchformer")
_EXTRA_FIELDS = (
    "merge_conv_kernel",
    "merge_conv_bias",
    "ffn_ln_gamma",
    "ffn_ln_beta",
    "w_ffn1",
    "b_ffn1",
    "w_ffn2",
    "b_ffn2",
)


@dataclass(frozen=True)
class BlockParams:
    """One encoder block: attention and cgMLP branches plus the merge.

    The e-branchformer variant adds a residual depthwise convolution
    over the concatenated branches before the merge projection and a
    half-residual pointwise feed-forward (d -> 4d -> d, ReLU) after it.
    """

    ln_gamma: np.ndarray
    ln_beta: np.ndarray
    attention: AttentionParams
    cgmlp: CgmlpParams
    w_merge: np.ndarray  # (2d, d)
    b_merge: np.ndarray
    variant: str = "branchformer"
    merge_conv_kernel: np.ndarray | None = None  # (2d, width)
    merge_conv_bias: np.ndarray | None = None
    ffn_ln_gamma: np.ndarray | None = None
    ffn_ln_beta: np.ndarray | None = None
    w_ffn1: np.ndarray | None = None  # (d, 4d)
    b_ffn1: np.ndarray | None = None
    w_ffn2: np.ndarray | None = None  # (4d, d)
    b_ffn2: np.ndarray | None = None

    def __post_init__(self):
        _expect(self.variant in _VARIANTS, f"variant must be one of {_VARIANTS}")
        d = self.attention.dim
        _expect(self.cgmlp.dim == d, "attention and cgmlp dims differ")
        _expect(self.ln_gamma.shape == (d,) and self.ln_beta.shape == (d,),
                f"block layer norm params must be ({d},)")
        _expect(self.w_merge.shape == (2 * d, d), f"w_merge must be ({2 * d}, {d})")
        _expect(self.b_merge.shape == (d,), f"b_merge must be ({d},)")
        extras_present = [getattr(self, f) is not None for f in _EXTRA_FIELDS]
        if self.variant == "branchformer":
            _expect(not any(extras_present),
                    "branchformer variant must not carry merge-conv/ffn extras")
        else:
            _expect(all(extras_present),
                    "e-branchformer variant requires merge-conv and ffn extras")
            _expect(self.merge_conv_kernel.shape[0] == 2 * d
                    and self.merge_conv_kernel.shape[1] % 2 == 1,
                    f"merge_conv_kernel must be ({2 * d}, odd width)")
            _expect(self.merge_conv_bias.shape == (2 * d,),
                    f"merge_conv_bias must be ({2 * d},)")
            _expect(self.ffn_ln_gamma.shape == (d,) and self.ffn_ln_beta.shape == (d,),
                    f"ffn layer norm params must be ({d},)")
            _expect(self.w_ffn1.shape == (d, 4 * d), f"w_ffn1 must be ({d}, {4 * d})")
            _expect(self.b_ffn1.shape == (4 * d,), f"b_ffn1 must be ({4 * d},)")
            _expect(self.w_ffn2.shape == (4 * d, d), f"w_ffn2 must be ({4 * d}, {d})")
            _expect(self.b_ffn2.shape == (d,), f"b_ffn2 must be ({d},)")

    @property
    def dim(self) -> int:
        return self.attention.dim

    @classmethod
    def seeded(
        cls,
        gen: XorShift64Star,
        dim: int,
        heads: int = 2,
        hidden: int | None = None,
        width: int = 7,
        variant: str = "branchformer",
        merge_width: int = 3,
    ) -> "BlockParams":
        hidden = 2 * dim if hidden is None else hidden
        attention = AttentionParams.seeded(gen, dim, heads)
        cgmlp = CgmlpParams.seeded(gen, dim, hidden, width)
        w_merge = gen.draw(2 * dim, dim)
        b_merge = gen.draw(dim)
        extras = {}
        if variant == "e-branchformer":
            extras = {
                "merge_conv_kernel": gen.draw(2 * dim, merge_width),
                "merge_conv_bias": gen.draw(2 * dim),
                "ffn_ln_gamma": np.ones(dim),
                "ffn_ln_beta": np.zeros(dim),
                "w_ffn1": gen.draw(dim, 4 * dim),
                "b_ffn1": gen.draw(4 * dim),
                "w_ffn2": gen.draw(4 * dim, dim),
                "b_ffn2": gen.draw(dim),
            }
        return cls(
            ln_gamma=np.ones(dim),
            ln_beta=np.zeros(dim),
            attention=attention,
            cgmlp=cgmlp,
            w_merge=w_merge,
            b_merge=b_merge,
            variant=variant,
            **extras,
        )


@dataclass(frozen=True)
class CrossFusionParams:
    """Two cross-attention layers: audio-queries and video-queries."""

    audio_to_video: AttentionParams
    video_to_audio: AttentionParams

    def __post_init__(self):
        _expect(self.audio_to_video.dim == self.video_to_audio.dim,
                "both cross-attention layers must share the feature dim")

    @property
    def dim(self) -> int:
        return self.audio_to_video.dim

    @classmethod
    def seeded(cls, gen: XorShift64Star, dim: int, heads: int = 2) -> "CrossFusionParams":
        return cls(
            audio_to_video=AttentionParams.seeded(gen, dim, heads),
            video_to_audio=AttentionParams.seeded(gen, dim, heads),
        )


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LN_EPS) * gamma + beta


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _attention(q: np.ndarray, kv: np.ndarray, p: AttentionParams):
    t_q, t_kv = q.shape[0], kv.shape[0]
    d_h = p.dim // p.heads
    qh = (q @ p.w_q + p.b_q).reshape(t_q, p.heads, d_h)
    kh = (kv @ p.w_k + p.b_k).reshape(t_kv, p.heads, d_h)
    vh = (kv @ p.w_v + p.b_v).reshape(t_kv, p.heads, d_h)
    scores = np.einsum("qhd,khd->hqk", qh, kh) / np.sqrt(d_h)
    attn = _softmax(scores)  # (heads, t_q, t_kv)
    ctx = np.einsum("hqk,khd->qhd", attn, vh).reshape(t_q, p.dim)
    return ctx @ p.w_o + p.b_o, attn


def multi_head_attention(
    q_seq: FeatureSequence,
    kv_seq: FeatureSequence,
    p: AttentionParams,
    return_weights: bool = False,
):
    """Scaled dot-product attention of queries over a key/value sequence.

    No positional encoding is applied, so the output is invariant to
    permutations of the key/value frames. With ``return_weights`` the
    per-head attention maps (heads, T_q, T_kv) are returned as well.
    """
    _expect(q_seq.dim == p.dim, f"query dim {q_seq.dim} != params dim {p.dim}")
    _expect(kv_seq.dim == p.dim, f"key/value dim {kv_seq.dim} != params dim {p.dim}")
    _expect(kv_seq.length >= 1, "key/value sequence must not be empty")
    out, attn = _attention(q_seq.frames, kv_seq.frames, p)
    result = FeatureSequence(out, q_seq.modality)
    return (result, attn) if return_weights else result


def _depthwise_conv(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Per-channel temporal convolution, zero padded to the same length."""
    t, channels = x.shape
    width = kernel.shape[1]
    half = (width - 1) // 2
    padded = np.zeros((t + width - 1, channels))
    padded[half : half + t] = x
    out = np.zeros_like(x)
    for k in range(width):
        out += padded[k : k + t] * kernel[:, k][None, :]
    return out + bias


def _cgmlp(x: np.ndarray, p: CgmlpParams) -> np.ndarray:
    up = x @ p.w_up + p.b_up
    e = p.hidden
    gate_in, conv_in = up[:, :e], up[:, e:]
    normed = _layer_norm(conv_in, p.ln_gamma, p.ln_beta)
    gated = gate_in * _depthwise_conv(normed, p.conv_kernel, p.conv_bias)
    return gated @ p.w_down + p.b_down


def cgmlp(seq: FeatureSequence, p: CgmlpParams) -> FeatureSequence:
    """Convolutional-gating MLP over a frame sequence.

    The temporal footprint is the convolution width: an input change at
    frame t can only affect outputs within (width - 1) / 2 frames of t.
    """
    _expect(seq.dim == p.dim, f"input dim {seq.dim} != params dim {p.dim}")
    return FeatureSequence(_cgmlp(seq.frames, p), seq.modality)


def branchformer_block(seq: FeatureSequence, p: BlockParams) -> FeatureSequence:
    """Two-branch encoder block with residual merge.

    Both branches read the same pre-normalized input; their outputs are
    concatenated and projected back to d on top of the residual. The
    e-branchformer variant adds a residual depthwise convolution over
    the concatenation and a trailing half-residual feed-forward.
    """
    _expect(seq.dim == p.dim, f"input dim {seq.dim} != params dim {p.dim}")
    x = seq.frames
    normed = _layer_norm(x, p.ln_gamma, p.ln_beta)
    branch_attn, _ = _attention(normed, normed, p.attention)
    branch_conv = _cgmlp(normed, p.cgmlp)
    cat = np.concatenate([branch_attn, branch_conv], axis=1)
    if p.variant == "e-branchformer":
        cat = cat + _depthwise_conv(cat, p.merge_conv_kernel, p.merge_conv_bias)
    merged = x + cat @ p.w_merge + p.b_merge
    if p.variant == "e-branchformer":
        hidden = _layer_norm(merged, p.ffn_ln_gamma, p.ffn_ln_beta)
        hidden = np.maximum(hidden @ p.w_ffn1 + p.b_ffn1, 0.0)
        merged = merged + 0.5 * (hidden @ p.w_ffn2 + p.b_ffn2)
    return FeatureSequence(merged, seq.modality)


def resample_indices(length_out: int, length_in: int) -> np.ndarray:
    """Nearest-neighbor index map i -> round(i * length_in / length_out)."""
    idx = [min(round(i * length_in / length_out), length_in - 1) for i in range(length_out)]
    return np.asarray(idx, dtype=np.int64)


def cross_modal_fuse(
    audio: FeatureSequence, video: FeatureSequence, params: CrossFusionParams
) -> FeatureSequence:
    """Bidirectional cross-attention fusion onto the audio time base.

    Layer 1 lets audio frames query the video sequence; layer 2 lets
    video frames query the audio sequence, after which the video-side
    output is resampled to the audio length by nearest-neighbor index
    mapping. The two results are concatenated along the feature axis,
    giving shape (T_audio, 2 d).
    """
    _expect(audio.length >= 1, "audio sequence must not be empty")
    _expect(video.length >= 1, "video sequence must not be empty")
    _expect(audio.dim == video.dim == params.dim, "feature dims must all agree")
    a_out = multi_head_attention(audio, video, params.audio_to_video).frames
    v_out = multi_head_attention(video, audio, params.video_to_audio).frames
    v_res = v_out[resample_indices(audio.length, video.length)]
    return FeatureSequence(np.concatenate([a_out, v_res], axis=1), "audio")


def ctc_loss(log_probs: np.ndarray, labels) -> float:
    """Negative log-probability of all blank-augmented alignments.

    Parameters
    ----------
    log_probs : ndarray, shape (T, V)
        Log-softmax rows; each must sum to one in probability within
        1e-6. Index 0 is the blank.
    labels : sequence of int
        Targets over 1..V-1.

    Raises
    ------
    InfeasibleLabelError
        The labels (with required blanks between repeats) cannot fit in
        T frames; the loss would be infinite.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.ndim != 2 or lp.shape[1] < 2:
        raise ParameterError(f"log_probs must be (T, V >= 2), got {lp.shape}")
    t_len, vocab = lp.shape
    from scipy.special import logsumexp  # scipy stays off the enhance import path

    row_sums = logsumexp(lp, axis=1)
    if np.max(np.abs(row_sums)) > 1e-6:
        raise ParameterError("log_probs rows must be normalized log-softmax")
    labels = [int(v) for v in labels]
    if any(not 1 <= v < vocab for v in labels):
        raise ParameterError(f"labels must lie in [1, {vocab - 1}]")
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    if len(labels) + repeats > t_len:
        raise InfeasibleLabelError(
            f"{len(labels)} labels with {repeats} repeats cannot align in {t_len} frames"
        )

    ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    ext[1::2] = labels
    n = ext.size
    neg_inf = -np.inf
    alpha = np.full(n, neg_inf)
    alpha[0] = lp[0, _BLANK]
    if n > 1:
        alpha[1] = lp[0, ext[1]]
    skip_ok = np.zeros(n, dtype=bool)
    skip_ok[2:] = (ext[2:] != _BLANK) & (ext[2:] != ext[:-2])
    for t in range(1, t_len):
        shifted1 = np.concatenate(([neg_inf], alpha[:-1]))
        shifted2 = np.concatenate(([neg_inf, neg_inf], alpha[:-2]))
        merged = np.logaddexp(alpha, shifted1)
        merged = np.where(skip_ok, np.logaddexp(merged, shifted2), merged)
        alpha = merged + lp[t, ext]
    total = alpha[-1] if n == 1 else np.logaddexp(alpha[-1], alpha[-2])
    return max(float(-total), 0.0)


def write_ftoy(path, arrays) -> None:
    """Serialize float64 tensors as consecutive flat binary blocks.

    Each block: magic ``FTOY``, u32 version, u32 rank, u32 dims[rank],
    little-endian float64 payload in row-major order.
    """
    blob = bytearray()
    for arr in arrays:
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim:  # ascontiguousarray would promote rank 0 to rank 1
            a = np.ascontiguousarray(a)
        blob += _MAGIC
        blob += struct.pack("<II", _FTOY_VERSION, a.ndim)
        blob += struct.pack(f"<{a.ndim}I", *a.shape)
        blob += a.astype("<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def read_ftoy(path) -> list:
    """Read back every tensor block written by :func:`write_ftoy`."""
    raw = Path(path).read_bytes()
    out = []
    pos = 0
    while pos < len(raw):
        if raw[pos : pos + 4] != _MAGIC:
            raise DataError(f"{path}: bad magic at byte {pos}")
        pos += 4
        if pos + 8 > len(raw):
            raise DataError(f"{path}: truncated header at byte {pos}")
        version, rank = struct.unpack_from("<II", raw, pos)
        pos += 8
        if version != _FTOY_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        if rank > 32:
            raise DataError(f"{path}: implausible rank {rank}")
        if pos + 4 * rank > len(raw):
            raise DataError(f"{path}: truncated dims at byte {pos}")
        dims = struct.unpack_from(f"<{rank}I", raw, pos)
        pos += 4 * rank
        count = int(np.prod(dims)) if rank else 1
        nbytes = 8 * count
        if pos + nbytes > len(raw):
            raise DataError(f"{path}: truncated payload at byte {pos}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(dims)
        out.append(arr.astype(np.float64))
        pos += nbytes
    return out
