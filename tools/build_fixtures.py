#!/usr/bin/env python3
"""Regenerate bundled data files and recorded test fixtures.

Deterministic: every rerun writes identical bytes.  Rerun this script
whenever the preprocessing rules change, because the recorded wiki graph
keys its search table off the keyword extractor's actual output.

Outputs:
  src/wikiharvest/data/tag_lexicon.tsv
  src/wikiharvest/data/golden/tagged_sentences.tsv
  src/wikiharvest/data/golden/noun_phrases.tsv
  tests/fixtures/wordnet_mini/...
  tests/fixtures/vectors_toy.txt
  tests/fixtures/railway_rs.txt, railway_test_rs.txt, transport_test_rs.txt
  tests/fixtures/railway_graph.json
  tests/fixtures/transport_corpus/...
  tests/fixtures/recorded.json
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DATA = ROOT / "src" / "wikiharvest" / "data"
GOLDEN = DATA / "golden"
FIXTURES = ROOT / "tests" / "fixtures"


# ---------------------------------------------------------------------------
# 1. tag lexicon

NOUNS = """
system service equipment train rail railway railroad track driver vehicle
signal network data message information time level speed brake door mode unit
user operator interface display report control command request response
failure error test function state status power line station device sensor
server database record value parameter channel radio call communication
connection document requirement specification section page table figure case
condition event alarm warning notification emergency procedure process
operation maintenance traffic road street lane bridge highway transport
transportation management infrastructure locomotive wagon freight passenger
platform route journey distance position location area region zone board cab
crew staff supervisor authority agency standard protocol software hardware
module component number identifier code key button switch light indicator
screen menu option item list group type part end point term word text file
format output input result performance capacity frequency range limit
threshold safety security access permission account session log history
century company museum award author film music politics economy festival
painting novel mountain island city country world people man woman child
place thing way day year month week hour minute second example name title
article category content source version project design model method approach
solution problem issue feature cost price budget schedule plan goal objective
scope risk quality review change release phase stage step task activity
resource tool technique technology science engineering engine construction
building structure material steel gauge tunnel crossing junction yard depot
terminal car bus truck block centre center profile balise telegram odometry
subsystem occupancy entry integrity movement voice departure arrival
controller supervision restriction curve description instruction shunting
timetable machine standstill side kind benefit body degree direction
""".split()

VERBS = """
provide require ensure perform send receive transmit show indicate allow
enable disable support include contain consist apply define describe specify
generate create delete remove add store detect notify alert activate
deactivate initiate terminate start stop run execute operate maintain check
verify validate confirm accept reject cancel open close lock unlock press
select enter exit move travel arrive depart accelerate decelerate proceed
continue resume suspend wait respond connect disconnect establish exchange
transfer fail exceed reach pass cross follow trigger cause prevent avoid
reduce increase decrease improve handle configure install go make take give
get keep bring turn drive ride remain become seem depend refer relate comply
conform use update register monitor supervise issue determine inspect
carry engage acknowledge align discard repeat fuse withstand announce
derive invoke force expose intervene enforce isolate compute load encode
adjust
""".split()

ADJS = """
new main single double automatic manual electric electronic digital analog
safe unsafe dangerous critical important necessary optional mandatory
available active inactive current previous next last first final initial
early late fast slow quick high low maximum minimum full empty closed red
green yellow blue white black big large small long short wide narrow heavy
local remote central national international internal external public private
general specific special normal abnormal correct incorrect valid invalid
visible audible relevant separate different similar certain possible
technical operational functional physical logical lunar solar urban rural
onboard trackside trainborne responsible suitable temporary good bad free
busy ready
""".split()

ADVS = """
immediately quickly slowly automatically manually continuously periodically
directly normally currently previously approximately exactly completely
partially fully safely correctly properly always often sometimes usually
typically rarely soon together instead otherwise however therefore thus hence
moreover furthermore meanwhile already still forward backward twice perhaps
very
""".split()

NUMS = """
zero one two three four five six seven eight nine ten eleven twelve twenty
thirty fifty hundred thousand million
""".split()

OTHERS = ["e.g.", "i.e.", "etc.", "cf.", "vs."]


def write_tag_lexicon() -> None:
    rows: dict[str, str] = {}
    for words, tag in ((NOUNS, "NOUN"), (VERBS, "VERB"), (ADJS, "ADJ"),
                       (ADVS, "ADV"), (NUMS, "NUM"), (OTHERS, "OTHER")):
        for word in words:
            rows.setdefault(word, tag)
    lines = ["# most-frequent coarse tag per word (word<TAB>tag)"]
    lines += [f"{w}\t{t}" for w, t in sorted(rows.items())]
    DATA.joinpath("tag_lexicon.tsv").write_text("\n".join(lines) + "\n",
                                                encoding="utf-8")
    print(f"tag lexicon: {len(rows)} entries")


# ---------------------------------------------------------------------------
# 2. mini WordNet fixture

MINI_NOUNS = """
rover communication goose track train rail railway railroad system service
equipment brake emergency data message network driver vehicle signal road
street lane traffic bridge highway notification second minute meter report
display interface sensor server database operator failure mode command unit
level door speed light power station line time man foot area state end point
part case user value type number name way day side list control
""".split()

MINI_VERBS = "transmit stop be go send apply monitor activate record move run respond".split()

MINI_ADJS = "lunar red safe automatic main new big".split()

MINI_ADVS = "immediately quickly continuously normally".split()

NOUN_EXC = [("geese", "goose"), ("men", "man"), ("feet", "foot")]
VERB_EXC = [("transmitted", "transmit"), ("transmitting", "transmit"),
            ("went", "go"), ("was", "be"), ("were", "be"), ("been", "be"),
            ("is", "be"), ("are", "be"), ("am", "be"), ("ran", "run")]
ADJ_EXC = [("bigger", "big"), ("biggest", "big")]
ADV_EXC: list[tuple[str, str]] = []

_WN_HEADER = ("  1 This is a miniature lexicon fixture in the standard "
              "flat-file layout.\n  2 Lines starting with spaces are "
              "skipped by parsers.\n")


def write_mini_wordnet() -> None:
    wn = FIXTURES / "wordnet_mini"
    wn.mkdir(parents=True, exist_ok=True)
    pos_letter = {"noun": "n", "verb": "v", "adj": "a", "adv": "r"}
    for name, words in (("noun", MINI_NOUNS), ("verb", MINI_VERBS),
                        ("adj", MINI_ADJS), ("adv", MINI_ADVS)):
        lines = [_WN_HEADER.rstrip("\n")]
        for i, word in enumerate(sorted(set(words))):
            lemma = word.replace(" ", "_")
            lines.append(f"{lemma} {pos_letter[name]} 1 0 1 0 "
                         f"{8000000 + i:08d}")
        wn.joinpath(f"index.{name}").write_text("\n".join(lines) + "\n",
                                                encoding="utf-8")
    for name, pairs in (("noun", NOUN_EXC), ("verb", VERB_EXC),
                        ("adj", ADJ_EXC), ("adv", ADV_EXC)):
        body = "".join(f"{a} {b}\n" for a, b in pairs)
        wn.joinpath(f"{name}.exc").write_text(body, encoding="utf-8")
    total = len(set(MINI_NOUNS)) + len(set(MINI_VERBS)) + \
        len(set(MINI_ADJS)) + len(set(MINI_ADVS))
    print(f"mini wordnet: {total} entries")


# ---------------------------------------------------------------------------
# 3. embedding table (dim 8): domain words sit on orthonormal axes so a
# generated article's cosine against its domain axis is an exact function
# of its in-vocabulary token counts.

DIM = 8

RAIL_POOL = """
rail track train railway railroad locomotive wagon freight passenger
platform junction tunnel gauge shunting
""".split()

RAIL_OFF_POOL = """
history century company museum award author literature politics economy
culture festival tradition architecture tourism painting
""".split()

TRANS_POOL = """
traffic road street lane highway bridge intersection pavement pedestrian
congestion transit bus commuter corridor
""".split()

TRANS_OFF_POOL = """
management information database software budget agency administration
contractor inspection documentation archive bulletin newsletter directory
""".split()

JUNK_TOKENS = """
zymurgy quasar nebula glacier fjord savanna tundra monsoon typhoon aurora
basalt quartz sonnet haiku fresco mosaic oboe cello mandolin accordion
falcon heron osprey lemur gibbon tapir okapi wombat quokka axolotl
sequoia baobab lichen plankton krill amoeba paramecium hydra kelp fern
comet meteor pulsar
""".split()

# Frequent-but-untracked words: kept out of the table on purpose so they
# shape frequency reports without moving any document embedding.
SHARED_WORDS = ["signal", "system", "vehicle", "driver"]

AXES = {"rail": 0, "trans": 1, "rail_off": 2, "trans_off": 3}


def _axis_vector(axis: int) -> list[float]:
    return [1.0 if i == axis else 0.0 for i in range(DIM)]


def write_vectors() -> None:
    rng = random.Random("toy-vectors")
    rows: list[tuple[str, list[float]]] = []
    for word in RAIL_POOL:
        rows.append((word, _axis_vector(AXES["rail"])))
    for word in TRANS_POOL:
        rows.append((word, _axis_vector(AXES["trans"])))
    for word in RAIL_OFF_POOL:
        rows.append((word, _axis_vector(AXES["rail_off"])))
    for word in TRANS_OFF_POOL:
        rows.append((word, _axis_vector(AXES["trans_off"])))
    for word in JUNK_TOKENS:
        rows.append((word, [round(rng.uniform(-1, 1), 6) for _ in range(DIM)]))
    assert len(rows) == 100, f"expected 100 vector rows, got {len(rows)}"
    assert len({w for w, _ in rows}) == 100, "duplicate vector tokens"
    lines = [f"{len(rows)} {DIM}"]
    for word, vec in rows:
        lines.append(word + " " + " ".join(f"{v:.6f}" for v in vec))
    FIXTURES.joinpath("vectors_toy.txt").write_text("\n".join(lines) + "\n",
                                                    encoding="utf-8")
    print(f"toy vectors: {len(rows)} tokens, dim {DIM}")


TABLE_TOKENS = (set(RAIL_POOL) | set(TRANS_POOL) | set(RAIL_OFF_POOL)
                | set(TRANS_OFF_POOL) | set(JUNK_TOKENS))


# ---------------------------------------------------------------------------
# 4. article text generation with exact in-vocabulary counts

RAIL_WEIGHTS = {
    "rail": 22, "track": 16, "train": 14, "railway": 12, "railroad": 10,
    "locomotive": 5, "wagon": 4, "freight": 4, "passenger": 4,
    "platform": 3, "junction": 2, "tunnel": 2, "gauge": 1, "shunting": 1,
}

TRANS_WEIGHTS = {
    "traffic": 30, "road": 24, "street": 20, "lane": 14, "highway": 4,
    "bridge": 3, "intersection": 1, "pavement": 1, "pedestrian": 1,
    "congestion": 1, "transit": 1, "bus": 1, "commuter": 1, "corridor": 1,
}

FILLER_WORDS = """
opened served carried linked region district branch valley harbour
village settlement traders merchants goods market decades residents
visitors builders engineers collection exhibition heritage landmark
ceremony anniversary expansion closure revival survey
""".split()

GLUE = ["the", "of", "and", "in", "to", "was", "is", "for", "with",
        "on", "by", "a", "were", "been", "from"]


def make_text(rng: random.Random, n_dom: int, n_off: int,
              weights: dict[str, int], off_pool: list[str],
              force_first: str | None = None) -> str:
    dom_words = list(weights)
    dom_w = [weights[w] for w in dom_words]
    dom = rng.choices(dom_words, weights=dom_w, k=n_dom)
    if force_first and n_dom > 0:
        dom[0] = force_first
    off = rng.choices(off_pool, k=n_off)
    filler = rng.choices(FILLER_WORDS, k=rng.randint(6, 12))
    shared = rng.choices(SHARED_WORDS, k=rng.randint(0, 3))
    bag = dom + off + filler + shared
    rng.shuffle(bag)

    sentences = []
    i = 0
    while i < len(bag):
        n = min(rng.randint(4, 8), len(bag) - i)
        words: list[str] = []
        for j, w in enumerate(bag[i:i + n]):
            if j > 0 and rng.random() < 0.65:
                words.append(rng.choice(GLUE))
            words.append(w)
        i += n
        words.insert(0, "The" if rng.random() < 0.6 else "A")
        sent = " ".join(words)
        sentences.append(sent[0].upper() + sent[1:] + ".")
    return " ".join(sentences)


def verify_text(content_tokens, text: str, n_dom: int, n_off: int,
                dom_set: set[str], off_set: set[str]) -> float:
    """Recount table hits in the final text; return the exact cosine."""
    hits_dom = hits_off = hits_other = 0
    for tok in content_tokens(text):
        if tok in dom_set:
            hits_dom += 1
        elif tok in off_set:
            hits_off += 1
        elif tok in TABLE_TOKENS:
            hits_other += 1
    assert hits_other == 0, f"stray table token in generated text: {text!r}"
    assert hits_dom == n_dom and hits_off == n_off, (
        f"count mismatch: expected ({n_dom},{n_off}), "
        f"got ({hits_dom},{hits_off})")
    return hits_dom / math.sqrt(hits_dom ** 2 + hits_off ** 2)


# Bucket design: (n_dom, n_off) base ratios.  Railway aggregates land at
# min 0.2696 / avg 0.9400 / max 0.9806 over 686 articles; transportation
# at min 0.6690 / avg 0.9504 / max 0.9899 over 10 articles.
RAIL_BUCKETS = [(7, 25)] * 1 + [(3, 4)] * 20 + [(2, 1)] * 60 + \
    [(3, 1)] * 450 + [(5, 1)] * 155
TRANS_BUCKETS = [(9, 10)] * 1 + [(5, 1)] * 8 + [(7, 1)] * 1


# ---------------------------------------------------------------------------
# 5. requirements specifications

RAILWAY_RS_SENTENCES = [
    # trainborne equipment (designed tf 8)
    "The trainborne equipment shall supervise the speed of the train continuously.",
    "When the permitted speed profile is exceeded, the trainborne equipment shall apply the service brake.",
    "The trainborne equipment shall apply the emergency brake when the train passes the end of the movement authority.",
    "The trainborne equipment shall remain operational while the power supply is degraded.",
    "The trainborne equipment shall record every brake application in the journey log.",
    "On startup, the trainborne equipment shall perform a self test.",
    "The trainborne equipment shall reject a movement authority that fails the integrity check.",
    "The trainborne equipment shall report each fault to the maintenance centre.",
    # emergency brake (designed tf 7)
    "The emergency brake shall remain applied until the train is at standstill.",
    "The driver shall not release the emergency brake while the train is moving.",
    "A failed balise group reading shall trigger the emergency brake.",
    "The emergency brake shall engage within two seconds of the command.",
    "Loss of the radio session shall cause the emergency brake to engage in supervised areas.",
    "The emergency brake status shall be shown on the driver machine interface.",
    # rail transport system (designed tf 6)
    "The rail transport system shall operate under a single signalling standard.",
    "Every subsystem of the rail transport system shall expose a diagnostic port.",
    "The rail transport system shall support mixed freight and passenger operation.",
    "Degraded operation of the rail transport system shall be announced to all connected trains.",
    "The rail transport system shall maintain a national register of vehicles.",
    "Availability targets for the rail transport system are defined per route.",
    # train protection system (designed tf 6)
    "The train protection system shall enforce every speed restriction.",
    "The train protection system shall intervene when the driver fails to acknowledge a warning.",
    "Isolation of the train protection system shall require a sealed switch.",
    "The train protection system shall log each intervention with a timestamp.",
    "The train protection system shall supervise shunting movement within depot limits.",
    "A failure of the train protection system shall set the signal to danger.",
    # railway signalling equipment (designed tf 5)
    "The railway signalling equipment shall display a proceed aspect only for a locked route.",
    "All railway signalling equipment shall fail to the most restrictive state.",
    "The railway signalling equipment shall be powered from two independent feeders.",
    "Maintenance staff shall inspect the railway signalling equipment every month.",
    "The railway signalling equipment shall interface with the interlocking area controller.",
    # driver machine interface (designed tf 5)
    "The driver machine interface shall display the permitted speed to the driver.",
    "The driver machine interface shall indicate the distance to the end of the movement authority.",
    "An audible warning shall be raised by the driver machine interface before any intervention.",
    "Brightness of the driver machine interface shall be adjustable by the driver.",
    "The driver machine interface shall show the current operating mode at all times.",
    # railway track section (designed tf 5)
    "Each railway track section shall report its occupancy to the interlocking.",
    "A railway track section shall be marked occupied when any axle is detected.",
    "The length of every railway track section is recorded in the track description.",
    "A broken rail inside a railway track section shall raise an alarm.",
    "Each railway track section shall have a unique identifier.",
    # movement authority (extra occurrences; designed tf >= 6 incl. above)
    "The movement authority shall be issued by the radio block centre.",
    "The radio block centre shall send the movement authority to the train over the radio network.",
    "A shortened movement authority shall be acknowledged by the trainborne equipment before it applies.",
    # radio block centre (designed tf 4 incl. above)
    "The radio block centre shall track the position of every train in its area.",
    "Handover between one radio block centre and the next shall not interrupt supervision.",
    # train radio communication (designed tf 4)
    "The train radio communication shall use the dedicated railway band.",
    "Loss of train radio communication for ten seconds shall be reported to the controller.",
    "The train radio communication shall carry both voice and data.",
    "Encryption of the train radio communication is mandatory in shared corridors.",
    # level crossing protection (designed tf 4)
    "The level crossing protection shall close the barriers before a train approaches.",
    "The level crossing protection shall prove the crossing clear before the signal releases.",
    "A failure of the level crossing protection shall impose a speed restriction.",
    "The level crossing protection shall report barrier status to the signalman.",
    # permitted speed profile (extra; designed tf 4 incl. above)
    "The permitted speed profile shall be computed from the track description and the train data.",
    "The permitted speed profile shall include every temporary speed restriction.",
    "Changes to the permitted speed profile shall be transmitted without delay.",
    # balise telegram (designed tf 4)
    "Each balise telegram shall carry a cyclic redundancy code.",
    "The onboard equipment shall discard a corrupted balise telegram.",
    "A balise telegram received out of sequence shall raise a position doubt.",
    "The balise telegram shall encode the distance to the next signal.",
    # train integrity monitoring (designed tf 3)
    "The train integrity monitoring shall confirm that no wagon has separated.",
    "Freight trains without train integrity monitoring shall run at reduced speed.",
    "The train integrity monitoring shall alert the radio block centre on any loss.",
    # cab signalling unit (designed tf 3)
    "The cab signalling unit shall repeat the lineside aspect inside the cab.",
    "The cab signalling unit shall operate from the onboard battery during outages.",
    "A dark cab signalling unit shall force a brake application.",
    # automatic train operation (designed tf 3)
    "The automatic train operation shall respect the permitted speed profile at all times.",
    "The automatic train operation shall hand control back to the driver on request.",
    "Station stops under automatic train operation shall align with the platform markers.",
    # track occupancy status (designed tf 3)
    "The track occupancy status shall be refreshed every second.",
    "The interlocking shall derive the track occupancy status from axle counters.",
    "Inconsistent track occupancy status shall lock the affected route.",
    # crossing gate (designed tf 2)
    "Each crossing gate shall be monitored by a position sensor.",
    "Every crossing gate shall report a stuck barrier within five seconds.",
    # fallback procedure (designed tf 2)
    "The fallback procedure shall be invoked when both radio channels fail.",
    "Drivers shall be trained in the fallback procedure every year.",
    # odometry subsystem (designed tf 2)
    "The odometry subsystem shall bound the position error to five meters.",
    "The odometry subsystem shall fuse wheel sensors with the balise references.",
    # onboard equipment (extra occurrences)
    "The onboard equipment shall store the last thousand events.",
    "The onboard equipment shall reset only at standstill.",
    # additional candidate phrases to fill the table
    "The national values shall be loaded at the border balise group.",
    "The national values shall define the release speed for each mode.",
    "A temporary speed restriction shall be set by the maintenance planner.",
    "Every temporary speed restriction shall carry a validity window.",
    "The train data entry shall be completed before departure.",
    "Incorrect train data entry shall be rejected with a reason code.",
    "The staff responsible mode shall limit the speed to a fixed ceiling.",
    "The staff responsible mode shall require an explicit acknowledgement.",
    "The degraded mode operation shall be recorded in the incident register.",
    "The degraded mode operation shall keep station announcements active.",
    "The braking curve shall account for the gradient of the track.",
    "The braking curve shall be recomputed after any change of train data.",
    "The release speed shall apply when approaching an occupied platform track.",
    "The session establishment shall complete within twenty seconds.",
    "The position report shall be sent at each balise group passage.",
    "The position report shall include the train running number.",
    "The train running number shall be unique per timetable day.",
    "The supervision limits shall be displayed when the driver requests them.",
    "The route suitability shall be checked against the loading gauge.",
    "The trackside equipment shall withstand the specified vibration levels.",
    "The interlocking area shall be configured from the signalling plan.",
    "A safety reaction shall bring the train to a supervised stop.",
]

RAILWAY_TEST_RS_SENTENCES = [
    "The railway radio network shall provide voice calls between the cab of the train and the controller.",
    "Every train on the railway shall register with the network before entering a supervised track.",
    "Group calls shall reach all drivers of trains within the same track area.",
    "An emergency call shall pre-empt every other call on the railway network.",
    "The controller shall be able to call a train by its running number.",
    "Shunting teams working on the track shall share a dedicated talk group.",
    "A call between the train and the maintenance staff shall be recorded.",
    "The railway operator shall assign priorities to call types.",
    "Handover between radio cells shall not drop an ongoing call from a moving train.",
    "Each locomotive shall carry a cab radio with a dedicated emergency button.",
    "The freight yard shall use the railway network for platform announcements.",
    "Passenger announcements at the platform shall come from the same railway data feed.",
    "Coverage along every rail route and tunnel shall exceed the agreed threshold.",
    "The junction areas of the railway shall have redundant radio coverage.",
]

TRANSPORT_TEST_RS_SENTENCES = [
    "The traffic control centre shall receive detector data from every road segment.",
    "Signal timing plans shall adapt to the measured traffic per lane.",
    "The system shall publish travel times for each highway corridor.",
    "Incidents on a road shall be confirmed by two independent sources before publication.",
    "The street maintenance schedule shall be coordinated with the traffic forecasts.",
    "Lane closures shall be announced on the signs upstream of the affected road.",
    "The bridge monitoring feed shall alert the operator when a load limit is exceeded.",
    "Pedestrian phases at each intersection shall respect the minimum green time.",
    "The transit fleet shall report its position to the traffic centre every thirty seconds.",
    "Bus priority at signals shall depend on the current congestion level.",
    "The commuter corridor studies shall use archived traffic data.",
    "Pavement condition surveys shall cover every street each year.",
]


def write_rs_files() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    FIXTURES.joinpath("railway_rs.txt").write_text(
        "\n".join(RAILWAY_RS_SENTENCES) + "\n", encoding="utf-8")
    FIXTURES.joinpath("railway_test_rs.txt").write_text(
        "\n".join(RAILWAY_TEST_RS_SENTENCES) + "\n", encoding="utf-8")
    FIXTURES.joinpath("transport_test_rs.txt").write_text(
        "\n".join(TRANSPORT_TEST_RS_SENTENCES) + "\n", encoding="utf-8")
    print("rs fixtures written")


# ---------------------------------------------------------------------------
# 6. golden tagged corpus (200 sentences)


def build_golden(pos_tag, Token) -> None:
    rng = random.Random("golden-200")
    nouns = ["system", "service", "train", "network", "message", "driver",
             "unit", "sensor", "server", "database", "operator", "interface",
             "report", "command", "request", "response", "alarm", "station",
             "channel", "controller", "door", "brake", "track", "signal",
             "route", "platform", "schedule", "timetable", "module",
             "component", "parameter", "value", "document", "procedure",
             "mode", "level"]
    adjs = ["automatic", "manual", "digital", "electric", "safe", "critical",
            "main", "central", "remote", "local", "internal", "external",
            "normal", "single", "double", "red", "green", "new", "final",
            "initial"]
    verbs = ["provide", "send", "receive", "monitor", "store", "check",
             "verify", "update", "generate", "activate", "reject", "accept",
             "transmit", "indicate", "detect", "open", "close", "lock",
             "trigger", "notify"]
    advs = ["immediately", "quickly", "automatically", "continuously",
            "periodically", "normally", "safely", "correctly"]
    verbeds = ["transmitted", "encrypted", "archived", "rejected", "delayed",
               "buffered"]
    gerunds = ["monitoring", "logging", "braking", "routing", "scheduling"]
    oov_verbs = ["misroute", "requeue", "unlatch"]
    plurals = [("seconds", "second"), ("minutes", "minute"),
               ("meters", "meter")]
    propns = [("Alpha", "Control"), ("Bravo", "Dispatch"), ("Delta", "Yard")]
    imperatives = ["Stop", "Proceed", "Wait", "Continue"]

    def N():  # noqa: E743 - tiny local samplers
        return rng.choice(nouns)

    def cap(w):
        return w[0].upper() + w[1:]

    sentences: list[list[tuple[str, str]]] = []
    gold_nps: list[list[str]] = []

    def add(tokens: list[tuple[str, str]], nps: list[str]) -> None:
        sentences.append(tokens)
        gold_nps.append(nps)

    def t1():
        a, n1, v, n2 = rng.choice(adjs), N(), rng.choice(verbs), N()
        add([("The", "DET"), (a, "ADJ"), (n1, "NOUN"), ("shall", "VERB"),
             (v, "VERB"), ("the", "DET"), (n2, "NOUN"), (".", "PUNCT")],
            [f"{a} {n1}", n2])

    def t2():
        n1, n2, v, n3, n4 = N(), N(), rng.choice(verbs), N(), N()
        add([("The", "DET"), (n1, "NOUN"), (n2, "NOUN"), ("shall", "VERB"),
             (v, "VERB"), ("a", "DET"), (n3, "NOUN"), ("to", "ADP"),
             ("the", "DET"), (n4, "NOUN"), (".", "PUNCT")],
            [f"{n1} {n2}", n3, n4])

    def t3():
        p1, p2 = rng.choice(propns)
        adv = rng.choice(advs)
        add([(p1, "PROPN"), (p2, "PROPN"), ("shall", "VERB"),
             ("respond", "VERB"), (adv, "ADV"), (".", "PUNCT")],
            [f"{p1.lower()} {p2.lower()}"])

    def t4():
        imp, adv = rng.choice(imperatives), rng.choice(advs)
        add([(imp, "VERB"), (adv, "ADV"), (".", "PUNCT")], [])

    def t5():
        n1, ved, n2 = N(), rng.choice(verbeds), N()
        add([("The", "DET"), (n1, "NOUN"), ("is", "VERB"), (ved, "VERB"),
             ("to", "ADP"), ("the", "DET"), (n2, "NOUN"), (".", "PUNCT")],
            [n1, n2])

    def t6():
        v1, n1, v2 = rng.choice(verbeds), N(), rng.choice(verbeds)
        add([("The", "DET"), (v1, "ADJ"), (n1, "NOUN"), ("shall", "VERB"),
             ("be", "VERB"), (v2, "VERB"), (".", "PUNCT")],
            [f"{v1} {n1}"])

    def t7():
        g, n1, a = rng.choice(gerunds), N(), rng.choice(adjs)
        add([(cap(g), "NOUN"), ("of", "ADP"), ("the", "DET"), (n1, "NOUN"),
             ("is", "VERB"), (a, "ADJ"), (".", "PUNCT")],
            [g, n1])

    def t8():
        n1, v = N(), rng.choice(verbs)
        num = str(rng.choice([2, 3, 5, 10, 30]))
        plural, lemma = rng.choice(plurals)
        add([("The", "DET"), (n1, "NOUN"), ("shall", "VERB"), (v, "VERB"),
             ("within", "ADP"), (num, "NUM"), (plural, "NOUN"),
             (".", "PUNCT")],
            [n1, f"{num} {lemma}"])

    def t9():
        n1, ov, n2 = N(), rng.choice(oov_verbs), N()
        add([("The", "DET"), (n1, "NOUN"), ("shall", "VERB"), (ov, "VERB"),
             ("the", "DET"), (n2, "NOUN"), (".", "PUNCT")],
            [n1, n2])

    def t10():
        adv, n1, v = rng.choice(advs), N(), rng.choice(verbs)
        add([(cap(adv), "ADV"), (",", "PUNCT"), ("the", "DET"),
             (n1, "NOUN"), ("shall", "VERB"), (v, "VERB"), (".", "PUNCT")],
            [n1])

    def t11():
        n1, n2, v = N(), N(), rng.choice(verbs)
        add([("The", "DET"), (n1, "NOUN"), ("(", "PUNCT"), ("e.g.", "OTHER"),
             ("the", "DET"), (n2, "NOUN"), (")", "PUNCT"), ("shall", "VERB"),
             (v, "VERB"), (".", "PUNCT")],
            [n1, n2])

    def t12():
        n1, v, n2, n3 = N(), rng.choice(verbs), N(), N()
        add([("The", "DET"), (n1, "NOUN"), ("shall", "VERB"), (v, "VERB"),
             ("the", "DET"), (n2, "NOUN"), ("and", "OTHER"), ("the", "DET"),
             (n3, "NOUN"), (".", "PUNCT")],
            [n1, n2, n3])

    def t13():
        n1, v3, n2, n3, v = N(), rng.choice(verbs) + "s", N(), N(), \
            rng.choice(verbs)
        add([("If", "OTHER"), ("the", "DET"), (n1, "NOUN"), (v3, "VERB"),
             ("a", "DET"), (n2, "NOUN"), (",", "PUNCT"), ("the", "DET"),
             (n3, "NOUN"), ("shall", "VERB"), (v, "VERB"), (".", "PUNCT")],
            [n1, n2, n3])

    def t14():
        n1, v, n2, n3 = N(), rng.choice(verbs), N(), N()
        add([("The", "DET"), (n1, "NOUN"), ("shall", "VERB"),
             ("not", "OTHER"), (v, "VERB"), ("the", "DET"), (n2, "NOUN"),
             ("during", "ADP"), (n3, "NOUN"), (".", "PUNCT")],
            [n1, n2, n3])

    def t15():
        n1, v = N(), rng.choice(verbs)
        num = str(rng.choice([2, 4, 8, 16]))
        plural, lemma = rng.choice(plurals)
        add([("Each", "DET"), (n1, "NOUN"), ("shall", "VERB"), (v, "VERB"),
             ("exactly", "ADV"), (num, "NUM"), (plural, "NOUN"),
             (".", "PUNCT")],
            [n1, f"{num} {lemma}"])

    def t16():  # lexicon most-frequent-tag misses: verb slot uses a NOUN entry
        n1, n2 = N(), N()
        bad = rng.choice(["record", "display"])
        add([("The", "DET"), (n1, "NOUN"), ("shall", "VERB"), (bad, "VERB"),
             ("the", "DET"), (n2, "NOUN"), (".", "PUNCT")],
            [n1, n2])

    plan = [(t1, 29), (t2, 25), (t3, 6), (t4, 8), (t5, 20), (t6, 15),
            (t7, 12), (t8, 12), (t9, 6), (t10, 12), (t11, 10), (t12, 14),
            (t13, 10), (t14, 10), (t15, 7), (t16, 4)]
    for fn, count in plan:
        for _ in range(count):
            fn()
    assert len(sentences) == 200, f"expected 200 sentences, got {len(sentences)}"

    # agreement of the real tagger against the gold tags
    total = hits = 0
    for sent in sentences:
        toks = []
        offset = 0
        for surface, _tag in sent:
            toks.append(Token(surface=surface, start=offset,
                              end=offset + len(surface)))
            offset += len(surface) + 1
        tagged = pos_tag(toks)
        for tok, (_surface, gold) in zip(tagged, sent):
            total += 1
            hits += (tok.pos == gold)
    agreement = hits / total
    print(f"golden corpus: {total} tokens, tagger agreement {agreement:.4f}")
    assert 0.90 <= agreement < 1.0, f"agreement {agreement} outside (0.90, 1.0)"

    GOLDEN.mkdir(parents=True, exist_ok=True)
    blocks = ["\n".join(f"{s}\t{t}" for s, t in sent) for sent in sentences]
    GOLDEN.joinpath("tagged_sentences.tsv").write_text(
        "\n\n".join(blocks) + "\n", encoding="utf-8")
    np_lines = [f"{i}\t{np}" for i, nps in enumerate(gold_nps) for np in nps]
    GOLDEN.joinpath("noun_phrases.tsv").write_text(
        "\n".join(np_lines) + "\n", encoding="utf-8")
    return None


# ---------------------------------------------------------------------------
# 7. the recorded railway wiki graph

SEEDS = [
    (1001, "Rail transport"),
    (1002, "Train protection system"),
    (1003, "Railway signalling"),
    (1004, "Emergency brake (train)"),
    (1005, "Train driver"),
    (1006, "Railway track"),
    (1007, "Train radio"),
    (1008, "Level crossing"),
    (1009, "Movement authority"),
    (1010, "Balise"),
    (1011, "Train monitoring system"),
    (1012, "Speed limits on rail transport"),
    (1013, "Cab signalling"),
    (1014, "Automatic train operation"),
    (1015, "Track circuit"),
]

# keyword -> ranked search hits (page ids); keywords absent from this table
# get an empty search result.
SEARCH_PLAN = {
    "emergency brake": [1004],
    "rail transport system": [1001],
    "train protection system": [1002],
    "railway signalling equipment": [1003],
    "driver machine interface": [1005],
    "railway track section": [1006],
    "train radio communication": [1007],
    "level crossing protection": [1008],
    "movement authority": [1009],
    "balise telegram": [1010],
    "train integrity monitoring": [1011],
    "permitted speed profile": [1012],
    "cab signalling unit": [1013],
    "automatic train operation": [1014],
    "track occupancy status": [1015],
    "radio block centre": [1007],          # second keyword, same seed
    "crossing gate": [3001, 1008],         # disambiguation page first
    "fallback procedure": [2001],          # hit with no title overlap
}

C_RT = 20001  # Category:Rail transport

SEED_CATEGORY_NAMES = {
    1002: "Train protection systems",
    1003: "Railway signalling",
    1004: "Railway brakes",
    1005: "Railway occupations",
    1006: "Permanent way",
    1007: "Railway communication",
    1008: "Level crossings",
    1009: "Train control",
    1010: "Railway beacons",
    1011: "Railway monitoring",
    1012: "Railway speed limits",
    1013: "Cab signalling",
    1014: "Train automation",
    1015: "Track circuits",
}

RT_SIBLING_TITLES = [
    "Pocket wagon", "Bi-directional vehicle", "Railway coupling",
    "Buffer stop", "Loading gauge", "Rail profile", "Track ballast",
    "Railway turntable", "Water crane", "Railway semaphore",
    "Token block working", "Railway gradient", "Rail fastening",
    "Railway sleeper", "Catch points", "Railway wye", "Gauntlet track",
    "Rail inspection", "Railway electrification", "Rolling resistance",
    "Axle counter", "Railway platform",
]

RT_SUBCAT_NAMES = [
    "Locomotives", "Rail infrastructure", "Electric rail transport",
    "High-speed rail", "Rail freight", "Passenger rail", "Rail yards",
    "Railway museums", "Narrow gauge railways", "Rack railways",
    "Tram transport", "Monorails", "Funicular railways", "Rail vehicles",
    "Railway bridges", "Railway tunnels", "Railway stations",
    "Railway signal boxes", "Train ferries", "Heritage railways",
    "Mountain railways", "Industrial railways", "Mining railways",
    "Forest railways", "Railway workshops", "Railway accidents",
    "Railway planning", "Railway history", "Railway maps",
    "Railway companies", "Railway staff",
]


def build_railway_graph(wikiharvest_mods) -> dict:
    (Pipeline, content_tokens, load_wordnet, make_lemmatizer,
     extract_keywords, title_overlap, FakeWiki) = wikiharvest_mods

    lexicon = load_wordnet(FIXTURES / "wordnet_mini")
    pipeline = Pipeline(lemmatizer=make_lemmatizer(lexicon))

    rs_text = FIXTURES.joinpath("railway_rs.txt").read_text("utf-8")
    doc = pipeline.preprocess(rs_text, source_id="railway_rs.txt")
    kws = extract_keywords(doc, lexicon, top_k=50)
    phrases = [kw.phrase for kw in kws]
    assert len(phrases) == 50, f"expected 50 keywords, got {len(phrases)}"
    missing = [p for p in SEARCH_PLAN if p not in phrases]
    assert not missing, f"designed keywords missing from top-50: {missing}"
    for required in ("trainborne equipment", "emergency brake"):
        assert required in phrases, f"{required!r} not in keyword table"

    wiki = FakeWiki(chunk_size=10)

    # categories
    wiki.add_category(C_RT, "Rail transport")
    for seed_id, name in SEED_CATEGORY_NAMES.items():
        wiki.add_category(20000 + (seed_id - 1000), name)
    wiki.add_category(20020, "Railway safety")
    subcat_ids = []
    for i, name in enumerate(RT_SUBCAT_NAMES):
        subcat_ids.append(wiki.add_category(20100 + i, name))
    assert len(subcat_ids) == 31
    wiki.categories[C_RT]["subcats"] = list(subcat_ids)
    # cycle: Rail infrastructure lists Rail transport as its subcategory
    wiki.categories[20101]["subcats"] = [C_RT]
    # one deeper level below Locomotives
    wiki.add_category(20200, "Steam locomotives")
    wiki.categories[20100]["subcats"] = [20200]

    # seed articles
    seed_cat_map = {1001: [C_RT]}
    for seed_id in SEED_CATEGORY_NAMES:
        seed_cat_map[seed_id] = [20000 + (seed_id - 1000)]
    seed_cat_map[1004].append(20020)
    seed_cat_map[1005].append(20020)
    for seed_id, title in SEEDS:
        wiki.add_article(seed_id, title, categories=seed_cat_map[seed_id],
                         hidden_categories=[90001])

    # the 22 sibling pages of Category:Rail transport
    sibling_ids = []
    for i, title in enumerate(RT_SIBLING_TITLES):
        sibling_ids.append(wiki.add_article(2001 + i, title,
                                            categories=[C_RT]))
    assert len(sibling_ids) == 22

    # fresh pages of the 14 seed categories: 9 x 46 + 5 x 47 = 649
    fresh_ids = []
    next_id = 2101
    cat_fill = sorted(SEED_CATEGORY_NAMES)  # by seed id
    for idx, seed_id in enumerate(cat_fill):
        cat_id = 20000 + (seed_id - 1000)
        count = 47 if idx >= 9 else 46
        cat_name = SEED_CATEGORY_NAMES[seed_id]
        for j in range(count):
            pid = next_id
            next_id += 1
            wiki.add_article(pid, f"{cat_name} topic {j + 1}",
                             categories=[cat_id])
            fresh_ids.append(pid)
    assert len(fresh_ids) == 649

    # overlap: ten fresh pages join a second category, and Railway safety
    # holds eight already-counted pages -- membership duplication only.
    dup_rng = random.Random("dup-members")
    for pid in dup_rng.sample(fresh_ids, 10):
        current = wiki.articles[pid]["categories"][0]
        others = [20000 + (s - 1000) for s in SEED_CATEGORY_NAMES
                  if 20000 + (s - 1000) != current]
        wiki.articles[pid]["categories"].append(dup_rng.choice(others))
    for pid in dup_rng.sample(fresh_ids, 8):
        if 20020 not in wiki.articles[pid]["categories"]:
            wiki.articles[pid]["categories"].append(20020)

    # deeper pages (depth >= 2 only)
    deep_id = 5001
    for scid in subcat_ids:
        for j in range(6):
            wiki.add_article(deep_id, f"Deep topic {deep_id}",
                             categories=[scid])
            deep_id += 1
    for j in range(5):
        wiki.add_article(5201 + j, f"Steam locomotive class {j + 1}",
                         categories=[20200])

    # disambiguation page returned first for one keyword
    wiki.add_article(3001, "Gate (disambiguation)", disambiguation=True)

    # search table covers designed hits; everything else finds nothing
    for kw, hits in SEARCH_PLAN.items():
        wiki.add_search(kw, hits)

    # sanity: title overlap holds exactly where designed
    for kw, hits in SEARCH_PLAN.items():
        for pid in hits:
            art = wiki.articles[pid]
            ok = title_overlap(art["title"], kw, pipeline)
            if kw == "fallback procedure":
                assert not ok, "fallback procedure should not overlap"
            elif not art["disambiguation"]:
                assert ok, f"no overlap: {kw!r} vs {art['title']!r}"

    # independent depth-1 membership arithmetic (no crawler involved)
    seed_ids = [pid for pid, _ in SEEDS]
    depth1 = set(seed_ids)
    seen_cats = set()
    for pid in seed_ids:
        seen_cats.update(wiki.articles[pid]["categories"])
    for cid in seen_cats:
        for apid, art in wiki.articles.items():
            if cid in art["categories"]:
                depth1.add(apid)
    assert len(depth1) == 686, f"depth-1 distinct count {len(depth1)} != 686"

    # article texts with engineered cosine buckets
    bucket_rng = random.Random("rail-buckets")
    buckets = list(RAIL_BUCKETS)
    assert len(buckets) == 686
    bucket_rng.shuffle(buckets)
    ordered = sorted(depth1)
    dom_set, off_set = set(RAIL_POOL), set(RAIL_OFF_POOL)
    cosines: dict[int, float] = {}
    for pid, (nd, no) in zip(ordered, buckets):
        text_rng = random.Random(f"rail-text-{pid}")
        mult = text_rng.choice([2, 3, 4, 5])
        n_dom, n_off = nd * mult, no * mult
        text = make_text(text_rng, n_dom, n_off, RAIL_WEIGHTS,
                         RAIL_OFF_POOL, force_first="rail")
        cosines[pid] = verify_text(content_tokens, text, n_dom, n_off,
                                   dom_set, off_set)
        wiki.articles[pid]["text"] = text

    FIXTURES.joinpath("railway_graph.json").write_text(wiki.to_json(),
                                                       encoding="utf-8")

    # recorded relatedness stats for the railway corpus (independent math)
    scores = [cosines[pid] for pid in ordered]
    test_rs = FIXTURES.joinpath("railway_test_rs.txt").read_text("utf-8")
    rs_tokens = content_tokens(test_rs)
    in_table = sum(1 for t in rs_tokens if t in TABLE_TOKENS)
    stray = [t for t in rs_tokens
             if t in TABLE_TOKENS and t not in dom_set]
    assert not stray, f"railway test RS has non-domain table tokens: {stray}"
    assert in_table >= 8, "railway test RS needs more in-table tokens"
    eval_stats = {
        "min": min(scores),
        "avg": sum(scores) / len(scores),
        "max": max(scores),
        "oov_rate": (len(rs_tokens) - in_table) / len(rs_tokens),
    }
    print(f"railway graph: 686 articles, eval min={eval_stats['min']:.4f} "
          f"avg={eval_stats['avg']:.4f} max={eval_stats['max']:.4f}")
    assert abs(eval_stats["avg"] - 0.94) < 0.01
    assert abs(eval_stats["min"] - 0.27) < 0.01
    assert abs(eval_stats["max"] - 0.98) < 0.01

    return {
        "seed_count": 15,
        "seed_page_ids": seed_ids,
        "depth1_article_count": 686,
        "rt_sibling_count": 22,
        "rt_subcat_count": 31,
        "eval": eval_stats,
        "required_keywords": ["trainborne equipment", "emergency brake"],
        "top_terms": ["rail", "track", "train", "railway", "railroad"],
    }


# ---------------------------------------------------------------------------
# 8. the recorded transportation corpus

TRANS_ARTICLES = [
    (9001, "History of road building"),
    (9002, "Traffic management"),
    (9003, "Road surface"),
    (9004, "Street network"),
    (9005, "Lane control system"),
    (9006, "Highway corridor"),
    (9007, "Traffic signal coordination"),
    (9008, "Road traffic census"),
    (9009, "Urban street design"),
    (9010, "Congestion pricing"),
]


def build_transport_corpus(content_tokens, write_corpus) -> dict:
    out = FIXTURES / "transport_corpus"
    dom_set, off_set = set(TRANS_POOL), set(TRANS_OFF_POOL)
    buckets = list(TRANS_BUCKETS)
    assert len(buckets) == len(TRANS_ARTICLES)
    entries = []
    cosines = []
    for (pid, title), (nd, no) in zip(TRANS_ARTICLES, buckets):
        text_rng = random.Random(f"trans-text-{pid}")
        mult = text_rng.choice([4, 5, 6])
        n_dom, n_off = nd * mult, no * mult
        text = make_text(text_rng, n_dom, n_off, TRANS_WEIGHTS,
                         TRANS_OFF_POOL, force_first="traffic")
        cosines.append(verify_text(content_tokens, text, n_dom, n_off,
                                   dom_set, off_set))
        entries.append((pid, title, text))

    os.environ["SOURCE_DATE_EPOCH"] = "1768435200"   # 2026-01-15T00:00:00Z
    write_corpus(entries, out, rs_source_hash="fixture", depth=1)

    test_rs = FIXTURES.joinpath("transport_test_rs.txt").read_text("utf-8")
    rs_tokens = content_tokens(test_rs)
    in_table = sum(1 for t in rs_tokens if t in TABLE_TOKENS)
    stray = [t for t in rs_tokens
             if t in TABLE_TOKENS and t not in dom_set]
    assert not stray, f"transport test RS has non-domain table tokens: {stray}"
    assert in_table >= 8, "transport test RS needs more in-table tokens"
    stats = {
        "min": min(cosines),
        "avg": sum(cosines) / len(cosines),
        "max": max(cosines),
        "oov_rate": (len(rs_tokens) - in_table) / len(rs_tokens),
    }
    print(f"transport corpus: {len(entries)} articles, eval "
          f"min={stats['min']:.4f} avg={stats['avg']:.4f} "
          f"max={stats['max']:.4f}")
    assert abs(stats["min"] - 0.67) < 0.01
    assert abs(stats["avg"] - 0.95) < 0.01
    assert abs(stats["max"] - 0.99) < 0.01
    return {
        "article_count": len(entries),
        "eval": stats,
        "top_terms": ["traffic", "road", "street", "lane"],
    }


# ---------------------------------------------------------------------------


def main() -> None:
    write_tag_lexicon()
    write_mini_wordnet()
    write_vectors()
    write_rs_files()

    # data files must exist before the package reads them
    from wikiharvest.preprocess import Pipeline, Token, content_tokens, pos_tag
    from wikiharvest.lexicon import load_wordnet, make_lemmatizer
    from wikiharvest.keywords import extract_keywords
    from wikiharvest.crawler import title_overlap
    from wikiharvest.testing import FakeWiki
    from wikiharvest.corpus import write_corpus

    # guard: filler/glue vocab never collides with the vector table
    assert not (set(FILLER_WORDS) & TABLE_TOKENS)
    assert not (set(GLUE) & TABLE_TOKENS)
    assert not (set(SHARED_WORDS) & TABLE_TOKENS)

    build_golden(pos_tag, Token)

    railway = build_railway_graph((Pipeline, content_tokens, load_wordnet,
                                   make_lemmatizer, extract_keywords,
                                   title_overlap, FakeWiki))
    transport = build_transport_corpus(content_tokens, write_corpus)

    recorded = {"railway": railway, "transportation": transport}
    FIXTURES.joinpath("recorded.json").write_text(
        json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    print("recorded.json written")


if __name__ == "__main__":
    main()
