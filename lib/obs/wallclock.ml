(* The one sanctioned wall-reading module.  Everything here reads
   hardware time (Unix.gettimeofday, Sys.time) and allocator state
   (Gc.quick_stat); the effect lint allowlists exactly this file and
   flags any wall read elsewhere as [lint-wallclock-escape].

   A recorder is a *sidecar*: it observes the engine through the same
   attribution choke points the virtual-time profiler uses
   ([Ctx.charge_span]) but never feeds a value back, so a run with a
   recorder attached is bit-identical — virtual clock, result multiset,
   decision ledger — to a bare run.  It keeps no spans of its own: wall
   self-time and allocation are stamped into the [Profile] span being
   charged, so one registry carries both clocks.  Wall self-time is
   attributed by delta-since-last-stamp: each attribution charges the
   hardware time elapsed since the previous one to the span being
   charged, which is exact in aggregate and costs one clock read per
   charge.  Every 64th attribution is a sampling-profiler tick: it
   takes a [Gc.quick_stat] and charges the allocation delta to the
   sampled span. *)

type gc_totals = {
  g_minor_words : float;
  g_major_words : float;
  g_promoted_words : float;
  g_minor_collections : int;
  g_major_collections : int;
  g_compactions : int;
  g_top_heap_words : int;
}

type info = {
  phase : string;
  node : string;
  depth : int;
  order : int;
  self_s : float;
  samples : int;
  minor_words : float;
  major_words : float;
}

(* Sampler period in attribution ticks. *)
let sample_every = 64

type t = {
  epoch : float;
  cpu_epoch : float;
  gc0 : Gc.stat;
  mutable profile : Profile.t;  (* the registry the stamps land in *)
  mutable last_stamp : float;  (* relative seconds at last attribution *)
  mutable ticks : int;  (* attributions so far *)
  mutable last_minor : float;  (* words at the previous sampler tick *)
  mutable last_major : float;
}

(* ---------------- timebase ---------------- *)

(* Hybrid timebase: [Unix.gettimeofday] gives real elapsed time but can
   step backwards (NTP); clamping to the last reading makes the local
   view monotonic non-decreasing, which is all span deltas need.
   [Sys.time] rides along as the CPU-seconds shadow. *)

let mono_last = ref neg_infinity

let monotonic_s () =
  let raw = Unix.gettimeofday () in
  if raw < !mono_last then !mono_last
  else begin
    mono_last := raw;
    raw
  end

let cpu_now () = Sys.time ()

let create () =
  let epoch = monotonic_s () in
  { epoch; cpu_epoch = cpu_now ();
    gc0 = Gc.quick_stat (); profile = Profile.create (); last_stamp = 0.0;
    ticks = 0; last_minor = 0.0; last_major = 0.0 }

let profile t = t.profile
let attach t p = t.profile <- p

let elapsed_s t = monotonic_s () -. t.epoch

let cpu_s t = cpu_now () -. t.cpu_epoch

(* ---------------- attribution ---------------- *)

let sample_tick t sp =
  let q = Gc.quick_stat () in
  let minor = q.Gc.minor_words -. t.gc0.Gc.minor_words in
  let major = q.Gc.major_words -. t.gc0.Gc.major_words in
  Profile.add_sample sp ~minor_words:(minor -. t.last_minor)
    ~major_words:(major -. t.last_major);
  t.last_minor <- minor;
  t.last_major <- major

let stamp t sp =
  let at = elapsed_s t in
  Profile.add_wall sp (at -. t.last_stamp);
  t.last_stamp <- at;
  t.ticks <- t.ticks + 1;
  if t.ticks mod sample_every = 0 then sample_tick t sp

(* [attribute t sp] charges the wall time elapsed since the last stamp
   to profile span [sp], or to the "(unattributed)" bucket of the
   profile's current phase when the charge carried no span. *)
let attribute t sp =
  stamp t
    (match sp with
     | Some sp -> sp
     | None -> Profile.bucket t.profile "(unattributed)")

(* Wait and I/O points (the driver blocking on source arrival or retry
   backoff, checkpoint capture and load) stamp into a named bucket so
   their wall cost never pollutes the next operator's span. *)
let note_bucket t name = stamp t (Profile.bucket t.profile name)

(* ---------------- reads ---------------- *)

let view (i : Profile.info) =
  { phase = i.phase; node = i.node; depth = i.depth; order = i.order;
    self_s = i.wall_s; samples = i.samples; minor_words = i.minor_words;
    major_words = i.major_words }

let spans t = List.map view (Profile.spans t.profile)
let totals t = List.map view (Profile.totals t.profile)

let sample_count t = t.ticks / sample_every

let gc_totals t =
  let q = Gc.quick_stat () in
  { g_minor_words = q.Gc.minor_words -. t.gc0.Gc.minor_words;
    g_major_words = q.Gc.major_words -. t.gc0.Gc.major_words;
    g_promoted_words = q.Gc.promoted_words -. t.gc0.Gc.promoted_words;
    g_minor_collections =
      q.Gc.minor_collections - t.gc0.Gc.minor_collections;
    g_major_collections =
      q.Gc.major_collections - t.gc0.Gc.major_collections;
    g_compactions = q.Gc.compactions - t.gc0.Gc.compactions;
    g_top_heap_words = q.Gc.top_heap_words }

let sync_metrics t m =
  let g name help v = Metrics.set (Metrics.gauge m ~help name) v in
  let gc = gc_totals t in
  g "adp_wall_elapsed_seconds" "wall-clock seconds since wall capture began"
    (elapsed_s t);
  g "adp_wall_cpu_seconds" "process CPU seconds since wall capture began"
    (cpu_s t);
  g "adp_wall_samples" "sampling-profiler ticks recorded"
    (float_of_int (sample_count t));
  g "adp_gc_minor_words" "words allocated in the minor heap"
    gc.g_minor_words;
  g "adp_gc_major_words" "words allocated in the major heap"
    gc.g_major_words;
  g "adp_gc_promoted_words" "words promoted minor -> major"
    gc.g_promoted_words;
  g "adp_gc_minor_collections" "minor collections"
    (float_of_int gc.g_minor_collections);
  g "adp_gc_major_collections" "major collection cycles"
    (float_of_int gc.g_major_collections);
  g "adp_gc_compactions" "heap compactions"
    (float_of_int gc.g_compactions);
  g "adp_gc_top_heap_words" "largest major heap size reached"
    (float_of_int gc.g_top_heap_words)
