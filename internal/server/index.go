package server

// indexHTML is the self-contained demo page: insight carousels
// (Figure 1), click-to-focus with live recommendation updates (§4.1),
// and the per-class overview heat map (Figure 2).
const indexHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Foresight — Recommending Visual Insights</title>
<style>
  body { font-family: -apple-system, "Segoe UI", sans-serif; margin: 0; background: #f7f7f9; color: #222; }
  header { background: #2b3a55; color: white; padding: 14px 22px; }
  header h1 { margin: 0; font-size: 20px; }
  header .sub { opacity: 0.75; font-size: 13px; }
  #focusbar { padding: 8px 22px; background: #fff6e0; font-size: 13px; border-bottom: 1px solid #eee; }
  #focusbar .chip { display: inline-block; background: #2b3a55; color: white; border-radius: 12px;
                    padding: 2px 10px; margin-right: 6px; cursor: pointer; }
  .carousel { margin: 14px 22px; }
  .carousel h2 { font-size: 15px; margin: 6px 0; color: #2b3a55; }
  .row { display: flex; overflow-x: auto; gap: 10px; padding-bottom: 6px; }
  .card { background: white; border: 1px solid #ddd; border-radius: 6px; min-width: 440px;
          cursor: pointer; transition: box-shadow 0.15s; }
  .card:hover { box-shadow: 0 3px 10px rgba(0,0,0,0.18); }
  .card .score { font-size: 12px; color: #555; padding: 4px 10px; }
  .card img { display: block; }
  #overview { margin: 14px 22px; background: white; border: 1px solid #ddd; border-radius: 6px;
              padding: 10px; overflow-x: auto; }
  select, button { font-size: 13px; margin-left: 8px; }
</style>
</head>
<body>
<header>
  <h1>Foresight</h1>
  <div class="sub">Recommending visual insights — click a card to focus it; recommendations update around your focus.</div>
</header>
<div id="focusbar">focus: <span id="focuslist">(none)</span>
  <button onclick="clearFocus()">clear</button>
  <label>overview:<select id="ovclass" onchange="loadOverview()"></select></label>
</div>
<div id="carousels"></div>
<div id="overview"></div>
<script>
async function loadCarousels() {
  const res = await fetch('/api/carousels');
  const data = await res.json();
  const root = document.getElementById('carousels');
  root.innerHTML = '';
  for (const c of data.carousels) {
    const div = document.createElement('div');
    div.className = 'carousel';
    const h = document.createElement('h2');
    h.textContent = c.class + ' — ranked by ' + c.metric;
    div.appendChild(h);
    const row = document.createElement('div');
    row.className = 'row';
    for (const ins of c.insights) {
      const card = document.createElement('div');
      card.className = 'card';
      const score = document.createElement('div');
      score.className = 'score';
      score.textContent = ins.attrs.join(', ') + '  ·  ' + ins.metric + ' = ' + ins.score.toFixed(3);
      card.appendChild(score);
      const img = document.createElement('img');
      img.src = '/api/render?class=' + encodeURIComponent(ins.class) +
        '&metric=' + encodeURIComponent(ins.metric) +
        '&attrs=' + encodeURIComponent(ins.attrs.join(','));
      img.width = 440;
      card.appendChild(img);
      card.onclick = () => focusInsight(ins);
      row.appendChild(card);
    }
    div.appendChild(row);
    root.appendChild(div);
  }
  const fl = document.getElementById('focuslist');
  fl.innerHTML = '';
  if (!data.focus || data.focus.length === 0) { fl.textContent = '(none)'; }
  else {
    for (const f of data.focus) {
      const chip = document.createElement('span');
      chip.className = 'chip';
      chip.textContent = f.class + '(' + f.attrs.join(',') + ') ✕';
      chip.onclick = () => unfocus(f.class + '/' + f.metric + '/' + f.attrs.join(','));
      fl.appendChild(chip);
    }
  }
}
async function focusInsight(ins) {
  await fetch('/api/focus', { method: 'POST', body: JSON.stringify(
    { class: ins.class, metric: ins.metric, attrs: ins.attrs }) });
  loadCarousels();
}
async function unfocus(key) {
  await fetch('/api/unfocus?key=' + encodeURIComponent(key), { method: 'POST' });
  loadCarousels();
}
async function clearFocus() {
  await fetch('/api/unfocus', { method: 'POST' });
  loadCarousels();
}
async function loadOverview() {
  const cls = document.getElementById('ovclass').value;
  const res = await fetch('/api/overview?class=' + cls + '&format=svg');
  document.getElementById('overview').innerHTML = await res.text();
}
async function loadClasses() {
  const res = await fetch('/api/classes');
  const data = await res.json();
  const sel = document.getElementById('ovclass');
  sel.innerHTML = '';
  for (const c of data.classes) {
    if (c.arity > 2) continue; // arity-3 classes have no overview
    const opt = document.createElement('option');
    opt.value = c.name;
    opt.textContent = c.name + ' (' + c.metrics[0] + ')';
    opt.title = c.description;
    sel.appendChild(opt);
  }
}
loadCarousels();
loadClasses().then(loadOverview);
</script>
</body>
</html>
`
